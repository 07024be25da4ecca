"""The benchmark's workloads and the correctness gate each run must pass.

Each workload is one hk subcommand on a shipped preset with a few fields
overridden; the benchmark seed is written into the config's ``seed``.
Study gates compare the error ladders with ``reference.json``: one run of
each study config with seed 0 at the commit that added this benchmark
(the study outputs do not depend on the seed).  A change meant to alter
the ladders edits ``reference.json`` with the ladders that the gate's
failure message prints.
"""

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

RATE_FLOOR = 0.3            # fitted log-log rate of every error ladder
CELL_RESIDUAL_MAX = 1e-9    # largest cell residual of the attached solves
REFERENCE_RTOL = 1e-6       # error ladders against reference.json
LAMINATE_RTOL = 1e-9        # a_hom at unit loadings against closed form
# Equal layers of a = s |xi| xi (p = 3) with s = 1 and 4: across the layers
# the flux is the same in both phases, so a(e1) solves
# (a/1)^(1/2) + (a/4)^(1/2) = 2, a = 16/9; along them a(e2) = (1 + 4)/2.
LAMINATE_A_HOM = ((16.0 / 9.0, 0.0), (0.0, 2.5))

STUDY_ERRORS = ("E_exp", "E_avg", "E_dm")


@dataclass
class Workload:
    name: str
    why: str
    subcommand: str
    preset: str
    overrides: dict = field(default_factory=dict)

    @property
    def is_study(self):
        return self.subcommand == "corrector-study"

    def config(self, presets, seed):
        cfg = copy.deepcopy(presets[self.preset])
        for key, value in self.overrides.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = copy.deepcopy(value)
        cfg["seed"] = int(seed)
        return cfg


WORKLOADS = {w.name: w for w in (
    Workload(
        "study-p3",
        "p=3 laminate study, no elasticity: macro Newton and corrector "
        "reconstruction make warm batched n=8 cell solves most of the run",
        "corrector-study", "laminate-p3",
        {"elasticity": None,
         "grids": {"cell_n": 8, "fine_m": 8, "solve_n": 8, "sample_n": 16},
         "ladder": [0.5, 0.25, 0.125]}),
    Workload(
        "study-p2-coupled",
        "linear laminate with elasticity: the cell layer does 2 solves and "
        "the sparse fine electrostatic and elastic factorizations dominate",
        "corrector-study", "laminate-p2",
        {"grids": {"fine_m": 8, "sample_n": 32},
         "ladder": [0.25, 0.125, 0.0625]}),
    Workload(
        "effective-p3-n16",
        "hk effective at cell_n 16: cold batched cell solves with no warm "
        "start or cache reuse, at 4x the nodes of the study cells",
        "effective", "laminate-p3",
        {"grids": {"cell_n": 16}}),
)}


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def _strictly_decreasing(seq):
    return all(b < a for a, b in zip(seq, seq[1:]))


def check_study(report, reference):
    """Gate failures of a ``corrector_report.json`` payload (empty if ok).

    ``reference`` maps each of STUDY_ERRORS to the expected ladder.
    """
    failures = []
    for name in STUDY_ERRORS:
        ladder = report["errors"][name]
        if not _strictly_decreasing(ladder):
            failures.append(f"{name} does not strictly decrease: {ladder}")
        rate = report["rates"][name]
        if rate is None or rate < RATE_FLOOR:
            failures.append(f"{name} rate {rate} below {RATE_FLOOR}")
        expected = reference[name]
        if len(ladder) != len(expected) or any(
                abs(got - want) > REFERENCE_RTOL * abs(want)
                for got, want in zip(ladder, expected)):
            failures.append(f"{name} {ladder} differs from reference "
                            f"{expected} by more than {REFERENCE_RTOL:g}")
    if not report["cell_residual_max"] <= CELL_RESIDUAL_MAX:
        failures.append(f"cell residual {report['cell_residual_max']} above "
                        f"{CELL_RESIDUAL_MAX:g}")
    return failures


def check_effective(report):
    """Gate failures of an ``effective.json`` payload (empty if ok)."""
    failures = []
    for k, (got, want) in enumerate(zip(report["a_hom_unit_loadings"],
                                        LAMINATE_A_HOM)):
        gap = max(abs(g - w) for g, w in zip(got, want))
        if not gap <= LAMINATE_RTOL * max(abs(w) for w in want):
            failures.append(f"a_hom(e{k + 1}) = {got}, closed form {want}")
    if report["a_hom_properties"]["violation"]:
        failures.append("property audit reports a violation")
    return failures


def check_outputs(workload, out_dir, reference):
    """Read the run's report file; returns (gate failures, accuracy dict)."""
    out_dir = Path(out_dir)
    if workload.is_study:
        with open(out_dir / "corrector_report.json") as fh:
            report = json.load(fh)
        accuracy = {"E_exp_finest": report["errors"]["E_exp"][-1],
                    "E_exp_rate": report["rates"]["E_exp"],
                    "errors": {k: report["errors"][k] for k in STUDY_ERRORS}}
        return check_study(report, reference[workload.name]), accuracy
    with open(out_dir / "effective.json") as fh:
        report = json.load(fh)
    return check_effective(report), {}
