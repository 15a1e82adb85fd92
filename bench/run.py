"""treesym benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload large_single --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; treesym is imported from the
checkout's ``src/`` and nowhere else. With ``--trace 0`` the run measures
for about ``--seconds`` and reports the end-to-end metrics of
BENCHMARK.json. Its ops are a fixed seeded set, as many as the reference
machine gets through in ``--seconds`` (and at least MIN_OPS), so a seed
always gives the same ``attempted`` and ``failed``. With ``--trace 1`` it
runs a fixed op set twice, untraced and then traced, adds the doubling
report, writes the spans under ``.bench_out/`` and reports the per-layer
metrics. Either way the last line
of stdout is one JSON object; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_OPS = 100  # so that at least 10 samples lie beyond p90
HARD_STOP_S = 140.0  # the run must end well inside 180 s even on a slow machine
OVERRUN = 2.0  # stop early once the ops have taken this many times --seconds
SETUP_LAUNCHES = 15
CALIBRATE_EVERY_S = 0.1
X2_FLAG = 2.5


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_treesym():
    if not (SRC / "treesym" / "__init__.py").is_file():
        fail(f"no treesym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import treesym

    if Path(treesym.__file__).resolve().parent != SRC / "treesym":
        fail(f"imported treesym from {treesym.__file__}, not from {SRC}")


def metric_defs(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Launcher:
    """Times fresh interpreters running ``import treesym``: the set-up every CLI call pays."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.cmd = [sys.executable, "-c", "import treesym"]
        self.times: list[float] = []
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)  # compiles bytecode once

    def launch(self, speed) -> None:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        self.times.append((time.perf_counter() - t0) * speed.factor())


class Tally:
    """Per-op outcomes of one pass."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds as measured
        self.scaled: list[float] = []  # seconds rescaled to the reference speed
        self.vertices = 0
        self.failures: list[str] = []

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)

    def rescale(self, factor: float) -> None:
        """Rescale the latencies recorded since the last call."""
        self.scaled.extend(dt * factor for dt in self.latencies[len(self.scaled):])

    def run(self, op, check: bool = True, tracer=None, counters=None) -> None:
        inp = op.inp
        if op.prepare is not None:
            if tracer is not None:
                tracer.active = False
            try:
                inp = op.prepare(inp)
            finally:
                if tracer is not None:
                    tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run(inp)
            raised = None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            raised = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.vertices += op.n
        if not check:
            return
        if tracer is not None:
            tracer.active = False
        try:
            if raised is not None:
                bad = [raised]
            else:
                bad = op.check(inp, result)
                if counters is not None and not bad:
                    op.observe(inp, result, counters)
        except Exception as exc:
            bad = [f"check raised {type(exc).__name__}: {exc}"]
        finally:
            if tracer is not None:
                tracer.active = True
        if bad:
            self.failures.append(f"{op.kind} n={op.n}: {'; '.join(bad)}")


def measure(workload, seed: int, seconds: float, started: float) -> tuple[Tally, Launcher]:
    """Run the seed's rounds: as many as the reference machine gets through in ``seconds``.

    The number of rounds depends only on the workload and ``seconds`` and
    gives at least MIN_OPS ops, so the ops attempted, and the ones that
    fail, are the same in every run with that seed. Only a run whose op,
    check and calibration time passes OVERRUN times ``seconds`` (or the
    hard stop) is cut short, at a round boundary.

    Op times are rescaled to the reference machine speed (see speed.py) at
    least every CALIBRATE_EVERY_S and after every round. Set-up launches are
    spread evenly over the rounds, so that set-up and ops see the same
    machine; they are not counted in ``seconds``.
    """
    tally = Tally()
    launcher = Launcher()
    speed = Speed()
    busy = 0.0
    rounds = workload.run_rounds(seconds, MIN_OPS)
    for r, ops in zip(range(rounds), workload.rounds(random.Random(seed))):
        t0 = time.perf_counter()
        for op in ops:
            tally.run(op)
            if time.perf_counter() - speed.at >= CALIBRATE_EVERY_S:
                tally.rescale(speed.factor())
        busy += time.perf_counter() - t0
        tally.rescale(speed.factor())
        while len(launcher.times) * rounds < (r + 1) * SETUP_LAUNCHES:
            launcher.launch(speed)
        if busy >= OVERRUN * seconds or time.perf_counter() - started >= HARD_STOP_S:
            break
    while len(launcher.times) < SETUP_LAUNCHES:
        launcher.launch(speed)
    return tally, launcher


def end_to_end(workload, seed: int, seconds: float, started: float) -> tuple[dict, Tally]:
    tally, launcher = measure(workload, seed, seconds, started)
    lat = tally.scaled
    attempted = len(lat)
    values = {
        "setup_s": statistics.median(launcher.times),
        "vertices_per_s": tally.vertices / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - len(tally.failures) / attempted,
    }
    return values, tally


def traced(workload, seed: int) -> tuple[dict, Tally, list[str]]:
    import spans
    from workloads import Counters

    rounds = workload.rounds(random.Random(seed))
    ops = [op for _ in range(workload.trace_rounds) for op in next(rounds)]

    # Each op runs untraced and then traced, back to back, so that the
    # tracing overhead is not confounded with drift in machine speed.
    tracer = spans.Tracer()
    counters = Counters()
    reference, tally = Tally(), Tally()
    for op in ops:
        reference.run(op, check=False)
        tracer.install()
        try:
            tally.run(op, tracer=tracer, counters=counters)
        finally:
            tracer.uninstall()
    main_spans = tracer.mark()
    tracer.install()
    try:
        x2 = doubling(workload, seed, tracer)
    finally:
        tracer.uninstall()

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"trace-{workload.name}"),
                 {"workload": workload.name, "seed": seed, "ops": len(ops), "main_spans": main_spans})

    self_s = tracer.self_times(0, main_spans)
    values: dict[str, float] = {}
    for nid, name in enumerate(tracer.names):
        values[f"{name}.calls"] = tracer.calls[nid]
        values[f"{name}.self_s"] = self_s[nid]
    for name in ("trees.center", "trees.root_at", "canon.subtree_codes"):
        values[f"{name}.calls_per_op"] = values[f"{name}.calls"] / len(ops)
    for name, hits in tracer.hits.items():
        values[f"{name}.hit_ratio"] = hits / values[f"{name}.calls"] if values[f"{name}.calls"] else 0.0
    values.update({
        "asym.a_bits_max": counters.a_bits_max,
        "autom.aut_bits_max": counters.aut_bits_max,
        "canon.classes": counters.classes,
        "canon.code_bytes": counters.code_bytes,
        "canon.max_twin_multiplicity": counters.max_twin_multiplicity,
        "oracle.automorphisms": tracer.automorphisms,
        "oracle.colorings_scanned": tracer.colorings_scanned,
        "trace.untraced_s": reference.timed_s,
        "trace.traced_s": tally.timed_s,
        "trace.overhead_s": tally.timed_s - reference.timed_s,
    })
    flagged = [name for name, ratio in x2.items() if ratio > X2_FLAG]
    values.update(x2)
    values["x2.flagged"] = len(flagged)
    return values, tally, flagged


def doubling(workload, seed: int, tracer, reps: int = 5) -> dict[str, float]:
    """Self time at 2n over self time at n, per (function, family) row.

    Sizes n and 2n alternate for ``reps`` seeded inputs each; self times are
    rescaled to the reference speed and the ratio uses the median per size.
    Runs with the tracer installed, after the main pass.
    """
    rng = random.Random(seed ^ 0x5EED)
    speed = Speed()
    ratios = {}
    for label, kind, family, n1, n2, funcs in workload.doubling:
        per_size: dict[int, list[list[float]]] = {n1: [], n2: []}
        for _ in range(reps):
            for n in (n1, n2):
                op = workload.make(rng, kind, family, 0.0, n)
                mark = tracer.mark()
                Tally().run(op, check=False)
                factor = speed.factor()
                per_size[n].append([t * factor for t in tracer.self_times(mark)])
        small, large = ([statistics.median(col) for col in zip(*per_size[n])] for n in (n1, n2))
        for fn in funcs:
            nid = tracer.names.index(fn)
            ratios[f"{fn}.x2.{label}"] = large[nid] / small[nid] if small[nid] > 0 else 0.0
    return ratios


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_treesym()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    units = metric_defs(bool(args.trace))
    gate_errors = workloads.self_test()

    flagged: list[str] = []
    if args.trace:
        values, tally, flagged = traced(workload, args.seed)
    else:
        values, tally = end_to_end(workload, args.seed, args.seconds, started)
    for name in units:
        if ".x2." in name:
            values.setdefault(name, 0.0)  # a doubling row of another workload
    missing = set(units) - set(values)
    if missing:
        fail(f"run produced no value for {sorted(missing)}")

    attempted = len(tally.latencies)
    failed = len(tally.failures)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {workload.name}, seed {args.seed}, {mode}: {attempted} ops "
          f"in {tally.timed_s:.2f} s timed, {time.perf_counter() - started:.1f} s wall")
    for name, unit in units.items():
        print(f"  {name:44s} {values[name]:>16.6g} {unit}")
    print(f"  fail_ratio {failed / attempted:.4f} ({failed} of {attempted} ops failed)")
    for line in tally.failures[:10]:
        print(f"  FAILED {line[:300]}")
    for name in flagged:
        print(f"  FLAGGED doubling ratio {values[name]:.2f} > {X2_FLAG}: {name}")
    for err in gate_errors:
        print(f"  GATE SELF-TEST WRONG: {err}")
    result = {
        "correct": not gate_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
