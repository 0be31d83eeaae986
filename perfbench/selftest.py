"""Show that every correctness gate of the benchmark trips, and only when it should.

    PYTHONPATH=src python3 perfbench/selftest.py

1. Each gate rejects a deliberately perturbed answer: a planted claim
   fault for the verify workloads, edited figure files, and edited
   eval-points and roots answers.
2. The reference tolerances admit a deliberate change of up to 1e-9 in
   ``d2_inv``: with every ``d2_inv`` result shifted by -1e-9 and by +1e-9
   (clipped to [0, 1/2]), the figure and the whole eval-points pool still
   pass.  The largest deviations seen are printed for calibration.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import functools
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import dsbs_envelopes as pkg
import workloads
from tracer import rebind
from workloads import KINDS, NUMBER, check_figure_dir, check_query, cli_call, output_fields

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


@contextlib.contextmanager
def patched(original, replacement):
    """Use ``replacement`` for ``original`` in every package module, for the block."""
    changed = rebind(original, replacement)
    try:
        yield
    finally:
        for mod, attr in changed:
            setattr(mod, attr, original)


def verify_gate() -> None:
    for cid in ("U", "H"):
        faulty = functools.partial(pkg.verify_all, inject_fault=cid)
        with patched(pkg.verify_all, faulty):
            w = workloads.VerifyWorkload(seed=7)
            w.step()
        expect(w.attempted == 12 and w.failed == 1, f"verify gate counts the planted {cid} fault ({w.failed}/{w.attempted})")


def _edit(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def figure_gate(ref, good: Path) -> None:
    expect(check_figure_dir(good, ref) == [], "figure gate passes the unmodified output")
    bump = lambda x: repr(float(x) * (1 + 1e-6) + 1e-6)  # noqa: E731
    edits = {
        "phi.csv value +1e-6": lambda d: _edit(d / "phi.csv", 5000, 2, bump),
        "phi_tilde.csv value +1e-6": lambda d: _edit(d / "phi_tilde.csv", 77, 2, bump),
        "psi.csv NaN": lambda d: _edit(d / "psi.csv", 123, 2, lambda x: "nan"),
        "q_family.csv value +1e-6": lambda d: _edit(d / "q_family.csv", 400, 2, bump),
        "q_family.csv family label": lambda d: _edit(d / "q_family.csv", 10, 3, lambda x: "psi_q"),
        "phi.csv coordinate": lambda d: _edit(d / "phi.csv", 9, 1, bump),
        "phi.csv missing row": lambda d: (d / "phi.csv").write_text(
            "\n".join((d / "phi.csv").read_text().splitlines()[:-1]) + "\n"),
        "psi.svg truncated": lambda d: (d / "psi.svg").write_text((d / "psi.svg").read_text()[:-20]),
        "q_family.svg missing": lambda d: (d / "q_family.svg").unlink(),
    }
    for what, edit in edits.items():
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "fig"
            shutil.copytree(good, bad)
            edit(bad)
            problems = check_figure_dir(bad, ref)
        expect(len(problems) == 1, f"figure gate trips on {what}: {problems[:1]}")


def _replace_field(out: str, label: str, value: str) -> str:
    return re.sub(rf"{re.escape(label)} = \S+", f"{label} = {value}", out, count=1)


def eval_gate(pool) -> None:
    for kind in KINDS:
        ref = pool[kind][0]["out"]
        expect(check_query(ref, ref) is None, f"eval gate passes the reference {kind} answer")
        first = float(NUMBER.search(ref)[0]) if kind != "roots" else None
        if first is not None:
            bad = NUMBER.sub(f"{first * (1 + 1e-6) + 1e-6:.12g}", ref, count=1)
            expect(check_query(bad, ref) is not None, f"eval gate trips on a {kind} value moved by 1e-6")
    for kind, label in (("phi_q", "argmin t"), ("psi_q", "argmax t")):
        ref = pool[kind][0]["out"]
        t = dict(output_fields(ref))["t"]
        bad = _replace_field(ref, label, f"{t + 1e-3:.12g}")
        expect(check_query(bad, ref) is not None, f"eval gate trips on a {kind} argmin moved by 1e-3")
    ref = pool["phi_tilde"][0]["out"]
    other = "branch = alpha-plane" if "alpha" not in ref else "branch = beta-plane"
    bad = re.sub(r"branch = \S+", other, ref)
    expect(check_query(bad, ref) is not None, "eval gate trips on a wrong phi_tilde branch")
    ref = pool["roots"][0]["out"]
    for label, value in (("residual", "1e-9"), ("scan_count", "2"), ("z", "1.5")):
        bad = _replace_field(ref, label, value)
        expect(check_query(bad, ref) is not None, f"roots gate trips on {label} = {value}")
    expect(check_query("no root: x\n", ref) is not None, "roots gate trips on a missing root")


def admissible_change(pool, ref) -> None:
    original = pkg.d2_inv
    for shift in (-1e-9, 1e-9):
        def shifted(s, _shift=shift):
            out = original(s)
            moved = np.clip(np.asarray(out) + _shift, 0.0, 0.5)
            return float(moved) if np.ndim(out) == 0 else moved

        worst: dict[str, float] = {}
        with patched(original, shifted), tempfile.TemporaryDirectory() as tmp:
            cli_call(["figure", "--rho", "0.9", "--grid-n", "101", "--svg", "--out", tmp])
            expect(check_figure_dir(Path(tmp), ref) == [], f"figure gate admits d2_inv {shift:+.0e}")
            for name in ("phi", "phi_tilde", "psi", "q_family"):
                rows = (Path(tmp) / f"{name}.csv").read_text().splitlines()[1:]
                got = np.array([float(r.split(",")[2]) for r in rows])
                want = ref["q_value" if name == "q_family" else name]
                dev = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                worst["figure values"] = max(worst.get("figure values", 0.0), float(dev.max()))
            bad = []
            for kind in KINDS:
                for entry in pool[kind]:
                    _, _, out, _ = cli_call(entry["argv"])
                    if check_query(out, entry["out"]) is not None:
                        bad.append(entry["argv"])
                    for (label, got), (_, want) in zip(output_fields(out), output_fields(entry["out"])):
                        key = "argmin t" if label == "t" else "values"
                        dev = abs(got - want) if label == "t" else abs(got - want) / max(1.0, abs(want))
                        if label not in ("residual", "scan_count", "n"):
                            worst[key] = max(worst.get(key, 0.0), dev)
        expect(not bad, f"eval gate admits d2_inv {shift:+.0e} ({len(bad)} rejected: {bad[:1]})")
        print(f"      largest deviation under d2_inv {shift:+.0e}: "
              + ", ".join(f"{k} {v:.2e}" for k, v in sorted(worst.items())))


def main() -> int:
    with np.load(workloads.REFERENCE / "figure.npz") as f:
        ref = {k: f[k] for k in f.files}
    pool = workloads.load_pool()
    eval_gate(pool)
    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp) / "fig"
        cli_call(["figure", "--rho", "0.9", "--grid-n", "101", "--svg", "--out", str(good)])
        figure_gate(ref, good)
    verify_gate()
    admissible_change(pool, ref)
    print(f"{len(failures)} check(s) failed" if failures else "all gate checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
