"""Regenerate the stored reference answers in ``perfbench/reference/``.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on a commit whose answers are known good, and only when a
change alters results on purpose; commit the new files with that change.

- ``figure.npz``: the value columns of the four figure CSVs at rho = 0.9,
  grid 101, plus the q-family curve labels.
- ``eval_points.json``: a pool of point queries per kind with the exact
  stdout of each.  rho is drawn through theta ~ U(0.02, 0.9); biases and
  deficits ~ U(0, 1); q from the figure's q-sets; the roots problems
  (theta, v, r) the way claim U draws them.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from workloads import FIGURE_GRID_N, FIGURE_RHO, KINDS, REFERENCE, SURFACES, cli_call, read_csv

POOL_SEED = 2021
POOL_PER_KIND = 128
FIG_Q_PHI = (1.0, 2.0, 10.0, -0.5, -2.0, -10.0)
FIG_Q_PSI = (0.25, 0.5, 0.75)


def _argv(kind: str, rng) -> list[str]:
    theta = rng.uniform(0.02, 0.9)
    rho = (1.0 - theta) / (1.0 + theta)
    if kind == "roots":
        v = math.copysign(math.exp(rng.uniform(math.log(1.05), math.log(50.0))), rng.choice([-1.0, 1.0]))
        r = rho * rho * rng.uniform(0.05, 0.95)
        return ["roots", "--theta", repr(theta), "--v", repr(v), "--r", repr(r)]
    argv = ["eval", kind, "--rho", repr(rho)]
    if kind in ("h2", "d2"):
        return argv + ["--a", repr(rng.uniform())]
    if kind == "dd2":
        return argv + ["--a", repr(rng.uniform()), "--b", repr(rng.uniform())]
    if kind in ("phi", "psi", "phi_tilde"):
        return argv + ["--s", repr(rng.uniform()), "--t", repr(rng.uniform())]
    qs = FIG_Q_PHI if kind == "phi_q" else FIG_Q_PSI
    return argv + ["--s", repr(rng.uniform()), "--q", repr(float(rng.choice(qs)))]


def eval_pool() -> dict:
    rng = np.random.default_rng(POOL_SEED)
    kinds = {}
    for kind in KINDS:
        entries = []
        for _ in range(POOL_PER_KIND):
            argv = _argv(kind, rng)
            _, code, out, err = cli_call(argv)
            if code != 0:
                raise RuntimeError(f"{argv}: exit {code}: {err}")
            entries.append({"argv": argv, "out": out})
        kinds[kind] = entries
    return {"pool_seed": POOL_SEED, "kinds": kinds}


def figure_reference() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["figure", "--rho", FIGURE_RHO, "--grid-n", str(FIGURE_GRID_N), "--out", tmp]
        _, code, _, err = cli_call(argv)
        if code != 0:
            raise RuntimeError(f"figure: exit {code}: {err}")
        ref = {}
        for name in SURFACES:
            _, rows = read_csv(Path(tmp, f"{name}.csv"))
            ref[name] = np.array([float(r[2]) for r in rows])
        _, rows = read_csv(Path(tmp, "q_family.csv"))
        ref["q_conj"] = np.array([float(r[0]) for r in rows])
        ref["q_value"] = np.array([float(r[2]) for r in rows])
        ref["q_family"] = np.array([r[3] for r in rows])
    return ref


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE / "figure.npz", **figure_reference())
    with open(REFERENCE / "eval_points.json", "w") as fh:
        json.dump(eval_pool(), fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
