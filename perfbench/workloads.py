"""The benchmark's workloads, their inputs and their correctness gates.

Each workload is a closed loop with one client: ``step()`` sends one
request (one ``verify_all`` call, one ``figure`` command, or one round of
eval-points queries), waits for it, checks the answer outside the timed
region and returns the latency of every query in the step.  Inputs come
only from the seed; the package sees nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

import dsbs_envelopes as pkg
import dsbs_envelopes.cli  # noqa: F401  (cli_call finds it in sys.modules)
from dsbs_envelopes import DsbsParams, VerifyOptions

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
OUT = HERE / "_out"

# Reference tolerances.  A deliberate change of up to 1e-9 in d2_inv must
# pass: shifting every d2_inv result by 1e-9 moves no figure or eval value
# by more than 5.4e-8 and no q-family argmin by more than 9e-8 (selftest.py
# measures this).  An answer moved by 1e-6 trips the gate.
VAL_ATOL = 2e-7
VAL_RTOL = 2e-7
ARGMIN_ATOL = 1e-6
ROOT_RESIDUAL = 1e-10  # the registry's default ``root_residual`` tolerance

KINDS = ("h2", "d2", "dd2", "phi", "psi", "phi_tilde", "phi_q", "psi_q", "roots")
FIGURE_RHO = "0.9"
FIGURE_GRID_N = 101
SURFACES = ("phi", "phi_tilde", "psi")
MAX_PROBLEMS = 5  # problem messages kept per run


def cli_call(argv, clock=time.perf_counter):
    """One in-process ``dsbs-envelopes`` invocation: (seconds, exit code, stdout, stderr)."""
    main = sys.modules["dsbs_envelopes.cli"].main  # looked up per call, so a tracer sees it
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = clock()
        code = main(argv)
        seconds = clock() - start
    return seconds, code, out.getvalue(), err.getvalue()


class Workload:
    """Shared failure accounting: ``attempted``/``failed`` count operations."""

    traced_steps = 1  # fixed work of a traced run, so its counts repeat exactly

    def __init__(self) -> None:
        self.timed = contextlib.nullcontext  # wraps each timed request; a tracer's root span
        self.clock = time.perf_counter  # times each request; child.py may swap in Sampler.clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_written = 0
        self.extra: dict = {}

    def _fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def info(self) -> dict:
        return {"problems": self.problems, **self.extra}


class VerifyWorkload(Workload):
    """One ``verify_all`` call per step; an operation is one claim.

    This is the run tier-1 makes: grid 101 with ``VerifyOptions.small()``,
    reseeded.
    """

    grid_n = 101

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.options = replace(VerifyOptions.small(), seed=seed)
        self.extra = {"canonical_sha256": [], "claim_ms": []}
        self.claim_s: dict[str, float] = {}

    def step(self) -> list[float]:
        params = DsbsParams(0.9)
        try:
            with self.timed():
                start = self.clock()
                report = pkg.verify_all(params, grid_n=self.grid_n, options=self.options)
                seconds = self.clock() - start
        except Exception:  # an op that raises is a failed op, not a crashed run
            self.attempted += len(pkg.CLAIM_IDS)
            self._fail(traceback.format_exc(limit=3), len(pkg.CLAIM_IDS))
            return []
        self.attempted += len(report.claims)
        for claim in report.claims:
            if not claim.passed:
                self._fail(f"claim {claim.claim_id} failed: worst={claim.worst_violation!r}")
        self.extra["canonical_sha256"].append(hashlib.sha256(report.canonical_bytes()).hexdigest())
        self.extra["claim_ms"].append({k: round(v, 1) for k, v in report.runtimes_ms.items()})
        for cid, ms in report.runtimes_ms.items():
            self.claim_s[cid] = self.claim_s.get(cid, 0.0) + ms / 1000.0
        return [seconds]


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _close(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    return np.abs(got - want) <= VAL_ATOL + VAL_RTOL * np.abs(want)


def check_figure_dir(out_dir: Path, ref) -> list[str]:
    """Problems with the eight figure files; an empty list means all correct."""
    problems = []
    n = FIGURE_GRID_N
    axis = np.linspace(0.0, 1.0, n)
    for name in SURFACES:
        path = out_dir / f"{name}.csv"
        try:
            header, rows = read_csv(path)
            data = np.array(rows, dtype=float)
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name}: unreadable ({exc})")
            continue
        if header != "s,t,value" or data.shape != (n * n, 3):
            problems.append(f"{path.name}: header {header!r}, shape {data.shape}")
            continue
        grid_s, grid_t = np.repeat(axis, n), np.tile(axis, n)
        if not np.all(np.isfinite(data)):
            problems.append(f"{path.name}: non-finite entries")
        elif np.max(np.abs(data[:, 0] - grid_s)) > 1e-11 or np.max(np.abs(data[:, 1] - grid_t)) > 1e-11:
            problems.append(f"{path.name}: coordinates off the {n}-point grid")
        elif not np.all(_close(data[:, 2], ref[name])):
            i = int(np.argmax(np.abs(data[:, 2] - ref[name])))
            problems.append(f"{path.name}: value {data[i, 2]!r} at row {i}, reference {ref[name][i]!r}")
    path = out_dir / "q_family.csv"
    try:
        header, rows = read_csv(path)
        num = np.array([r[:3] for r in rows], dtype=float)
        family = [r[3] for r in rows]
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
    else:
        m = ref["q_value"].size
        if header != "q_conj,s,value,family" or num.shape != (m, 3):
            problems.append(f"{path.name}: header {header!r}, shape {num.shape}")
        elif not np.all(np.isfinite(num[:, 1:])):
            problems.append(f"{path.name}: non-finite entries")
        elif family != list(ref["q_family"]) or not np.array_equal(num[:, 0], ref["q_conj"]):
            problems.append(f"{path.name}: curve labels differ from the reference")
        elif np.max(np.abs(num[:, 1] - np.tile(axis, m // n))) > 1e-11:
            problems.append(f"{path.name}: s off the {n}-point grid")
        elif not np.all(_close(num[:, 2], ref["q_value"])):
            i = int(np.argmax(np.abs(num[:, 2] - ref["q_value"])))
            problems.append(f"{path.name}: value {num[i, 2]!r} at row {i}, reference {ref['q_value'][i]!r}")
    for name in SURFACES + ("q_family",):
        path = out_dir / f"{name}.svg"
        try:
            root = ET.parse(path).getroot()
        except (OSError, ET.ParseError) as exc:
            problems.append(f"{path.name}: not well-formed ({exc})")
            continue
        drawn = sum(1 for el in root.iter() if el.tag.endswith(("polyline", "}g")))
        if not root.tag.endswith("svg") or drawn == 0:
            problems.append(f"{path.name}: no plotted curves")
    return problems


class FigureWorkload(Workload):
    """One ``figure --svg`` command per step; an operation is one output file.

    The figure's inputs are fixed (rho = 0.9, grid 101), so the seed does
    not change them.
    """

    FILES = 8

    def __init__(self) -> None:
        super().__init__()
        with np.load(REFERENCE / "figure.npz") as ref:
            self.ref = {k: ref[k] for k in ref.files}
        self.out_dir = OUT / f"figure-{os.getpid()}"
        self.argv = [
            "figure", "--rho", FIGURE_RHO, "--grid-n", str(FIGURE_GRID_N), "--svg",
            "--out", str(self.out_dir),
        ]

    def step(self) -> list[float]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += self.FILES
        try:
            with self.timed():
                seconds, code, out, err = cli_call(self.argv, self.clock)
            if code != 0:
                self._fail(f"figure exit code {code}: {err.strip()}", self.FILES)
                return [seconds]
            self.bytes_written += len(out) + sum(
                p.stat().st_size for p in self.out_dir.iterdir()
            )
            for problem in check_figure_dir(self.out_dir, self.ref):
                self._fail(problem)
            return [seconds]
        except Exception:  # an op that raises is a failed op, not a crashed run
            self._fail(traceback.format_exc(limit=3), self.FILES)
            return []
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)


_NUM = r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"
_FIELD = re.compile(rf"(?:(?P<label>[A-Za-z_][\w^]*) = )?(?<![\w^.])(?P<num>{_NUM})")
NUMBER = re.compile(rf"(?<![\w^.]){_NUM}")  # a printed number, not a digit inside a name


def output_fields(text: str) -> list[tuple[str, float]]:
    """(label, value) for every number a query printed; a bare value is 'value'."""
    return [(m["label"] or "value", float(m["num"])) for m in _FIELD.finditer(text)]


def check_query(out: str, ref_out: str) -> str | None:
    """None when a query's output matches its reference, else the problem."""
    if NUMBER.sub("#", out) != NUMBER.sub("#", ref_out):
        return f"output {out!r} differs in form from reference {ref_out!r}"
    for (label, got), (_, want) in zip(output_fields(out), output_fields(ref_out)):
        if label == "residual":
            ok = got <= ROOT_RESIDUAL
        elif label == "scan_count":
            ok = got == 1
        elif label == "n":
            ok = got == want
        elif label == "t":
            ok = abs(got - want) <= ARGMIN_ATOL
        else:
            ok = abs(got - want) <= VAL_ATOL + VAL_RTOL * abs(want)
        if not ok:
            return f"{label} = {got!r}, reference {want!r}"
    return None


def load_pool() -> dict:
    with open(REFERENCE / "eval_points.json") as fh:
        return json.load(fh)["kinds"]


class EvalPointsWorkload(Workload):
    """One round of nine point queries per step, one of each kind in seeded order.

    Queries are drawn without replacement from a stored pool with reference
    answers; the seed picks the pool entries and the order.  A round keeps
    the kind mix exact, so throughput does not drift with the draw.
    """

    traced_steps = 16

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.pool = load_pool()
        self.rng = np.random.default_rng(seed)
        self._queues = {kind: [] for kind in KINDS}

    def _next(self, kind: str) -> dict:
        queue = self._queues[kind]
        if not queue:
            queue.extend(self.rng.permutation(len(self.pool[kind])).tolist())
        return self.pool[kind][queue.pop()]

    def step(self) -> list[float]:
        latencies = []
        for k in self.rng.permutation(len(KINDS)):
            entry = self._next(KINDS[k])
            self.attempted += 1
            try:
                with self.timed():
                    seconds, code, out, err = cli_call(entry["argv"], self.clock)
            except Exception:  # an op that raises is a failed op, not a crashed run
                self._fail(traceback.format_exc(limit=3))
                continue
            latencies.append(seconds)
            self.bytes_written += len(out)
            problem = f"exit code {code}: {err.strip()}" if code != 0 else check_query(out, entry["out"])
            if problem is not None:
                self._fail(f"{' '.join(entry['argv'])}: {problem}")
        return latencies


def make(name: str, seed: int) -> Workload:
    if name == "verify-fast":
        return VerifyWorkload(seed)
    if name == "figure":
        return FigureWorkload()
    if name == "eval-points":
        return EvalPointsWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

