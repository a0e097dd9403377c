"""The benchmark's workloads: fixed operation lists derived from a seed.

Each operation is one ``sheetqv`` command line. The workload seed only moves
the random seeds passed to the program, so every seed does the same amount
of work. Seed 0 gives the acceptance-suite seeds (113, 127, 131, 141, 101).
"""

from __future__ import annotations

from dataclasses import dataclass

GOLDEN_SEED = 0
OUT_DIR = ".perfbench_out"  # relative to the checkout root; listed in .gitignore


@dataclass(frozen=True)
class Op:
    """One command line and what a correct run of it produces."""

    name: str          # unique within the workload
    metric: str        # end-to-end metric its time counts toward
    argv: tuple
    records: int       # JSON records expected on stdout
    out: str | None = None  # output file, relative to the checkout root

    @property
    def command(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


def _seed(base: int, seed: int) -> str:
    return str(base + 1000 * seed)


def _mc_verify(seed: int) -> list[Op]:
    h = ("--alpha", "0.35", "--beta", "0.35", "--M", "5000")
    return [
        Op("verify_charfn", "verify_charfn_s",
           ("verify", "--which", "charfn", *h, "--n", "64", "--seed", _seed(131, seed)), 2),
        Op("verify_stable", "verify_stable_s",
           ("verify", "--which", "stable", *h, "--n", "64", "--seed", _seed(141, seed)), 2),
        Op("verify_var", "verify_var_s",
           ("verify", "--which", "var", *h, "--n-list", "16", "64", "--seed", _seed(113, seed)), 2),
        Op("verify_ks", "verify_ks_s",
           ("verify", "--which", "ks", *h, "--n", "64", "--seed", _seed(127, seed)), 1),
    ]


def _large_field(seed: int) -> list[Op]:
    h = ("--alpha", "0.35", "--beta", "0.4")
    ops = []
    for base, method in ((1, "cholesky"), (2, "circulant")):
        out = f"{OUT_DIR}/sample_{method}.bin"
        ops.append(Op(
            f"sample_{method}", f"sample_{method}_s",
            ("sample", *h, "--n", "2048", "--seed", _seed(base, seed),
             "--method", method, "--format", "bin", "--out", out),
            0, out,
        ))
    out = f"{OUT_DIR}/qv.csv"
    ops.append(Op(
        "qv_csv", "qv_csv_s",
        ("qv", *h, "--n", "1024", "--seed", _seed(3, seed), "--weight", "cosine", "--out", out),
        0, out,
    ))
    return ops


def _analytic(seed: int) -> list[Op]:
    ops = [
        Op(f"sigma_{a}_{b}", "sigma_s", ("sigma", "--alpha", a, "--beta", b, "--tol", "1e-10"), 1)
        for a, b in (("0.35", "0.4"), ("0.3", "0.45"), ("0.45", "0.45"))
    ]
    n_list = [str(2**k) for k in range(3, 12)]  # 8 .. 2048
    ops.append(Op(
        "verify_mean", "verify_mean_s",
        ("verify", "--which", "mean", "--alpha", "0.35", "--beta", "0.35",
         "--n-list", *n_list, "--seed", _seed(0, seed)),
        1,
    ))
    ops.append(Op(
        "verify_kernel_props", "verify_kernel_props_s",
        ("verify", "--which", "kernel-props", "--alpha", "0.35", "--beta", "0.4",
         "--cases", "100000", "--seed", _seed(101, seed)),
        3,
    ))
    return ops


WORKLOADS = {"mc_verify": _mc_verify, "large_field": _large_field, "analytic": _analytic}


def operations(workload: str, seed: int) -> list[Op]:
    """The operation list of ``workload`` for workload seed ``seed``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return WORKLOADS[workload](seed)
