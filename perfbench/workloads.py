"""The five benchmark workloads: a config text and a `pesim` argument list each.

Every workload is one closed-loop client running one `python -m pesim.cli`
process at a time.  The three `random-trig` workloads take their initial
data from the benchmark seed; `coexistence-n128` and `verify-all` keep the
paper's fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

# Reference values exist for ic.seed = 0 .. N_IC_SEEDS-1 (see references.json);
# the benchmark seed picks one of them.
N_IC_SEEDS = 16

# The README/acceptance coexistence config.
_PAPER_CONFIG = """\
domain.left = 0.0
domain.right = 1.0
grid.n = 128
model.d1 = 1.0
model.d2 = 1.0
model.chi1 = 0.05
model.chi2 = 0.05
model.a1 = 1.0
model.a2 = 1.0
model.lambda1 = 1.0
model.lambda2 = 2.0
model.kind = regularized
reg.eps = 1e-4
reg.alpha = 0.5
reg.n1 = 2.0
reg.n2 = 2.0
ic.kind = perturbed
ic.base_u = 1.5
ic.base_v = 0.5
ic.amp_u = 0.3
ic.amp_v = 0.3
ic.mode = 1
ic.seed = 0
time.t_end = 100.0
time.sample_every = 1.0
stepper.scheme = imex
stepper.dt_init = 1e-3
stepper.dt_min = 1e-10
stepper.dt_max = 5e-2
stepper.newton_tol = 1e-10
stepper.positivity_floor = 1e-12
diag.gamma = 1.0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # pesim subcommand: simulate, experiment or verify
    which: str | None       # experiment name for `experiment`
    config: str | None      # config body without ic.seed; None for verify
    seeded: bool            # ic.seed comes from the benchmark seed

    def ic_seed(self, seed: int) -> int | None:
        return seed % N_IC_SEEDS if self.seeded else None

    def ref_key(self, seed: int) -> str:
        """Key of this run's entry in references.json."""
        return str(self.ic_seed(seed)) if self.seeded else "fixed"

    def config_text(self, seed: int) -> str | None:
        if self.config is None:
            return None
        if not self.seeded:
            return self.config
        return self.config + f"ic.seed = {self.ic_seed(seed)}\n"

    def cli_args(self, config_path: str | None, out_dir: str) -> list[str]:
        if self.command == "verify":
            return ["verify", "--out", out_dir, "--suite", "all"]
        if self.command == "experiment":
            return ["experiment", config_path, "--which", self.which, "--out", out_dir]
        return ["simulate", config_path, "--out", out_dir]


def _random_trig(body: str) -> str:
    return body + "ic.kind = random-trig\nic.mode = 4\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coexistence-n128", "experiment", "coexistence", _PAPER_CONFIG, False),
        Workload("simulate-n8192", "simulate", None, _random_trig(
            "grid.n = 8192\nmodel.kind = regularized\nstepper.scheme = imex\n"
            "time.t_end = 10.0\ntime.sample_every = 0.25\n"), True),
        Workload("implicit-n1024", "simulate", None, _random_trig(
            "grid.n = 1024\nmodel.kind = regularized\nstepper.scheme = fully_implicit\n"
            "time.t_end = 0.05\ntime.sample_every = 0.005\n"), True),
        Workload("eps-n4096", "experiment", "eps", _random_trig(
            "grid.n = 4096\ntime.t_end = 5.0\n"), True),
        Workload("verify-all", "verify", None, None, False),
    )
}
