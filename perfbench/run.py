#!/usr/bin/env python3
"""Benchmark of the cliquedist command line.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The inputs are generated from the
seed into a scratch directory inside the checkout (removed at exit), and the
program sees only those files. One closed-loop client runs the workload's
fixed sequence of CLI invocations, one child process at a time, with the
program's default thread count, repeating the sequence for about S seconds
of measured time (at least once).

--trace 0 prints the end-to-end metrics: run_s (wall per sequence), cpu_s
(user+sys of the CLI children), peak_rss_mb (largest child peak RSS), each the
median over repetitions, and setup_s (median of fresh interpreters importing
the package and loading the inputs through its public loaders, run between
the repetitions).
--trace 1 alternates untraced and traced repetitions and prints per-layer
metrics from the spans the traced children record (trace_child.py).

Outputs are checked against independent oracles outside the timed section,
and must be byte-identical across all repetitions, traced or not. Any
failed invocation or check makes the command exit 1. The last stdout line is
{"correct", "attempted", "failed", "metrics"} as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import layers
import oracle

BENCH_DIR = Path(__file__).resolve().parent
# Before each measured repetition, set-up probes run until they have taken
# SETUP_SLOT_S (at least one), so that set-up is sampled across the whole run.
SETUP_SLOT_S = 1.0
RUN_LIMIT_S = 170.0  # every child is killed once the run is this old

# Why each workload was chosen; each bypasses a mechanism another one runs.
WORKLOADS = {
    # The OT solve (wmd.solve_ot) dominates and textprep/core are light. The
    # relabeling baseline is n=7, exact, 5,040 relabelings, about 1% of the run.
    "wmd-pipeline": "Exact WMD on 7 documents (21 pairs): wmd.solve_ot dominates",
    # Ingestion and pooling are heavy and WMD is absent. The n=60 baseline is
    # Monte Carlo with its histogram written: sampling plus histogram writes
    # instead of an enumerated mean.
    "cosine-pipeline": "Cosine on 60 long documents and a 50,000-word embedding file: "
                       "ingestion and pooling dominate, no WMD",
    # Each call enumerates 362,880 relabelings, so the exact baseline
    # dominates, and the import is paid per call. A closed-form mean should
    # show here and not on cosine-pipeline, whose histogram still needs samples.
    "permtest-exact": "permtest on n=9 matrix pairs: exact relabeling baseline dominates",
}
END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    id: int
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Rep:
    traced: bool
    out: Path
    children: list = field(default_factory=list)
    span_files: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def wall_s(self):
        return sum(c.wall_s for c in self.children)

    @property
    def ok(self):
        return all(c.code == 0 for c in self.children)


class Bench:
    def __init__(self, root: Path, work: Path, workload: str, seed: int, inputs: gen.Inputs,
                 started: float):
        self.root, self.work = root, work
        self.workload, self.seed, self.inputs = workload, seed, inputs
        self.manifest = work / "inputs.json"
        self.manifest.write_text(json.dumps(inputs.files))
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.attempted = 0   # child processes started
        self.failed = set()  # ids of children that failed or whose output did
        self.failures = []   # (what, message)

    # -- children ------------------------------------------------------------

    def run_child(self, argv, log: Path) -> Child:
        """Run one child to completion; its own rusage comes from wait4."""
        self.attempted += 1
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(self.attempted, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0)

    def cli(self, args, log: Path, spans: Path | None = None) -> Child:
        if spans is None:
            argv = [sys.executable, "-m", "cliquedist", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans), *args]
        child = self.run_child(argv, log)
        if child.code != 0:
            tail = log.read_text(errors="replace")[-2000:]
            self.fail(f"cliquedist {args[0]}", f"exit {child.code}\n{tail}", [child])
        return child

    def fail(self, what, message, children):
        self.failures.append((what, message))
        self.failed.update(c.id for c in children)

    # -- workload sequences --------------------------------------------------

    def sequence(self, out: Path):
        """(CLI argument lists, output files) of one repetition into `out`."""
        files = self.inputs.files
        if self.workload == "permtest-exact":
            pairs = len(files) // 2
            return ([["permtest", files[f"matrix_a{k}"], files[f"matrix_b{k}"],
                      "--out", str(out / f"pair{k}")] for k in range(pairs)],
                    [out / f"pair{k}" / "report.json" for k in range(pairs)])
        config = {**files, "seed": self.seed}
        outputs = [out / "distances.csv", out / "report.json", out / "graph.dot"]
        if self.workload == "wmd-pipeline":
            config["model"] = "wmd"
        else:
            config.update(model="cosine", relatedness_mode="any-statement",
                          histogram_path=str(out / "histogram.csv"))
            outputs.append(out / "histogram.csv")
        cfg = out / "bench.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        return [["pipeline", "--config", str(cfg), "--out", str(out)]], outputs

    def repetition(self, index: int, traced: bool) -> Rep:
        out = self.work / "reps" / f"{index:03d}{'t' if traced else 'u'}"
        out.mkdir(parents=True)
        rep = Rep(traced, out)
        invocations, rep.outputs = self.sequence(out)
        for k, args in enumerate(invocations):
            spans = out / f"spans{k}.json" if traced else None
            rep.children.append(self.cli(args, out / f"log{k}.txt", spans))
            if spans is not None:
                rep.span_files.append(spans)
            if rep.children[-1].code != 0:
                break
        return rep

    def measure(self, seconds: float, traced: bool) -> tuple[list[Rep], list[float]]:
        """(repetitions, set-up times). Repeats the sequence while the next
        repetition would end within half a repetition of `seconds` of measured
        time. Untraced steps are one repetition after set-up probes; traced
        steps are an untraced then a traced repetition, without probes."""
        reps, setup = [], []
        while True:
            if not traced:
                setup += self.setup_probes()
                if self.failures:
                    return reps, setup
            step = [self.repetition(len(reps), False)]
            if traced and step[0].ok:
                step.append(self.repetition(len(reps) + 1, True))
            reps += step
            measured = sum(r.wall_s for r in reps)
            if not all(r.ok for r in step) or \
                    measured + sum(r.wall_s for r in step) / 2 > seconds:
                return reps, setup

    # -- set-up time ---------------------------------------------------------

    def warm_up(self) -> None:
        """Import the package once, which also writes its bytecode cache, and
        check that it is the checkout's own."""
        log = self.work / "warmup.txt"
        child = self.run_child([sys.executable, "-c",
                                "import cliquedist; print(cliquedist.__file__)"], log)
        lines = log.read_text(errors="replace").strip().splitlines()
        if child.code != 0 or not lines:
            self.fail("import", f"exit {child.code}\n{''.join(lines[-20:])}", [child])
        elif not Path(lines[-1]).resolve().is_relative_to(self.root / "src"):
            self.fail("import", f"imported {lines[-1]}, not the checkout's", [child])

    def setup_probes(self) -> list[float]:
        """Fresh interpreters importing the package and loading the inputs,
        until SETUP_SLOT_S has passed (at least one)."""
        times = []
        while not times or sum(times) < SETUP_SLOT_S:
            log = self.work / "setup.txt"
            child = self.run_child([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                                    str(self.manifest)], log)
            lines = log.read_text(errors="replace").strip().splitlines()
            if child.code != 0 or not lines:
                self.fail("setup", f"exit {child.code}\n{''.join(lines[-20:])}", [child])
                return times
            times.append(json.loads(lines[-1])["setup_s"])
        return times

    # -- correctness ---------------------------------------------------------

    def check(self, reps: list[Rep]) -> None:
        """Oracles on the first repetition's outputs; every repetition's
        outputs must be byte-identical to the first's."""
        done = [r for r in reps if r.ok]
        if not done:
            return
        first = done[0]
        files, data = self.inputs.files, self.inputs.oracle
        errors = []  # (message, child whose output it concerns)
        if self.workload == "permtest-exact":
            for k, report in enumerate(first.outputs):
                errors += [(e, first.children[k]) for e in oracle.check_report(
                    report, files[f"matrix_a{k}"], files[f"matrix_b{k}"])]
        else:
            distances, report, graph = first.outputs[:3]
            if self.workload == "wmd-pipeline":
                errors += oracle.check_wmd_distances(distances, data)
                errors += oracle.check_report(report, files["expert_matrix_path"], distances)
            else:
                errors += oracle.check_cosine_distances(distances, data)
                errors += oracle.check_report(report, files["expert_matrix_path"], distances,
                                              first.outputs[3])
            errors += oracle.check_graph(graph, distances)
            errors = [(e, first.children[0]) for e in errors]
        for message, child in errors:
            self.fail("oracle", message, [child])
        want = oracle.digest(first.out, first.outputs)
        for rep in done[1:]:
            got = oracle.digest(rep.out, rep.outputs)
            if got != want:
                differ = sorted(k for k in want if got.get(k) != want[k])
                self.fail("determinism", f"{rep.out.name} differs from {first.out.name} "
                                         f"in {differ}", rep.children)

    def headline(self) -> None:
        out = self.work / "headline"
        out.mkdir()
        child = self.cli(["permtest", str(self.root / "data" / "expert_distances.csv"),
                          str(self.root / "data" / "wmd_distances.csv"), "--out", str(out)],
                         self.work / "headline.txt")
        if child.code == 0:
            for message in oracle.check_headline(out / "report.json"):
                self.fail("headline", message, [child])


def machine_info() -> dict:
    import scipy

    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": platform.processor() or "unknown",
            "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def end_to_end(reps: list[Rep], setup: list[float]) -> dict:
    done = [r for r in reps if r.ok]
    print(f"repetitions: {len(done)}; run_s per repetition: "
          f"{[round(r.wall_s, 4) for r in done]}; setup_s samples: "
          f"{[round(t, 4) for t in setup]}")
    return {
        "run_s": _median([r.wall_s for r in done]),
        "cpu_s": _median([sum(c.cpu_s for c in r.children) for r in done]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([max(c.rss_mb for c in r.children) for r in done]),
    }


def per_layer(reps: list[Rep]) -> dict:
    plain = [r.wall_s for r in reps if r.ok and not r.traced]
    traced = [r for r in reps if r.ok and r.traced]
    per_rep, self_total, durations = [], {}, {}
    for rep in traced:
        values, self_by_name, spans = layers.per_sequence(rep.span_files)
        per_rep.append(values)
        for name, t in self_by_name.items():
            self_total[name] = self_total.get(name, 0.0) + t / len(traced)
        for name, samples in spans.items():
            durations.setdefault(name, []).extend(samples)
    metrics = {name: _median([v[name] for v in per_rep]) for name in per_rep[0]}
    metrics.update(layers.distribution("wmd.solve_ot", durations.get("wmd.solve_ot", [])))
    metrics.update(layers.distribution("metrics.pair", durations.get(layers.PAIR_SPAN, [])))
    metrics["trace.overhead_s"] = _median([r.wall_s for r in traced]) - _median(plain)
    print(f"traced repetitions: {len(traced)}; self time per sequence, largest first:")
    for name, t in sorted(self_total.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {name:<38} {t:10.4f} s")
    return {name: metrics[name] for name in layers.UNITS}


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "cliquedist" / "__init__.py").is_file() or \
            not (root / "data" / "expert_distances.csv").is_file():
        print(f"error: {root} is not a cliquedist source checkout", file=sys.stderr)
        return 2
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        t0 = time.perf_counter()
        (work / "inputs").mkdir()
        inputs = gen.GENERATORS[args.workload](args.seed, work / "inputs")
        print(f"workload: {args.workload} -- {WORKLOADS[args.workload]}")
        print(f"inputs (seed {args.seed}, generated in {time.perf_counter() - t0:.2f} s): "
              f"{json.dumps(inputs.stats)}")
        bench = Bench(root, work, args.workload, args.seed, inputs, started)
        print(f"machine: {json.dumps(machine_info())}")

        bench.warm_up()
        if not bench.failures:
            bench.headline()
        reps, setup = [], []
        if not bench.failures:
            reps, setup = bench.measure(args.seconds, bool(args.trace))
        bench.check(reps)
        if args.trace:
            metrics = per_layer(reps) if not bench.failures else {}
            units = {k: layers.UNITS[k][0] for k in metrics}
        else:
            metrics = end_to_end(reps, setup)
            units = END_TO_END
        failed = len(bench.failed)
        for what, message in bench.failures:
            print(f"FAILED {what}: {message}", file=sys.stderr)
        for name, value in metrics.items():
            print(f"{name:<40} {value:>14.6f} {units[name]}")
        print(f"{'failed_ratio':<40} {failed / max(bench.attempted, 1):>14.6f} ratio "
              f"({failed} of {bench.attempted} child runs failed)")
        print(json.dumps({
            "correct": not bench.failures,
            "attempted": bench.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0 if not bench.failures else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
