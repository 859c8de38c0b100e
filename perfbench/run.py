#!/usr/bin/env python3
"""kfjlt benchmark: one workload per run, closed loop, checked outputs.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload {distortion,ls,cp,verify} \\
        --seed N --seconds S --trace {0,1} [--smoke]

The library is imported from ``src/`` of the checkout that holds this file;
without it the run stops with exit code 2. BLAS/OpenMP threads are pinned to
``BLAS_THREADS`` before numpy is imported.

A run sets up ``SETUP_REPEATS`` times (imports, timed in a fresh
interpreter, plus building the workload's inputs from ``--seed``), then repeats one round of public calls while the
next round is expected to end within ``--seconds`` (at least one round).
The gated times are the CPU time of the process over the rounds: with one
process and one BLAS thread that is the rounds' wall time on an idle host,
and it leaves out the time a shared host does not run the process at all,
which spread wall times of the same code by up to a third between runs on
a shared 2-vCPU VM. Wall times are printed and kept in the manifest too.
With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1``
every untraced round is followed by a traced one, with every layer wrapped
in span recorders (see ``layers.py``), and it reports the per-layer metrics
and the tracing overhead. Outputs of the first round are checked against
dense references after the timed region, and every later round, traced or
not, must reproduce the first exactly.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. A manifest
with the environment, all metrics and check details, and the spans of a
traced run, are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREADS = 1  # fixed, and <= nproc on any machine; results are byte-identical only at a fixed count
SETUP_REPEATS = 5
# Import cost as a fresh interpreter pays it; timed in a child so that it can be repeated.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import numpy, kfjlt, kfjlt.cli; print(time.perf_counter() - t0)")
ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"

# Per-layer metrics of a traced run, named <layer>.<field>.
LAYER_FIELDS = {
    "bench.seed": ("calls", "self_s"),
    "bench.run": ("self_s",),
    "bench.emit": ("calls", "self_s", "bytes"),
    "transforms.construct": ("calls", "self_s"),
    "transforms.apply": ("calls", "self_s"),
    "transforms.mix": ("calls", "self_s", "elements"),
    "kron.gather": ("calls", "self_s", "rows"),
    "kron.materialize": ("calls", "self_s", "elements"),
    "sketch_ls.assemble": ("calls", "self_s"),
    "sketch_ls.solve": ("calls", "self_s", "degenerate_frac"),
    "cprand.mix_tensor": ("calls", "self_s", "elements"),
    "cprand.sweep": ("calls", "self_s"),
    "cprand.fit": ("calls", "self_s", "elements"),
    "testkit.rip": ("calls", "self_s", "supports"),
    "testkit.verify": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes", "elements": "count",
               "rows": "count", "supports": "count", "degenerate_frac": "ratio"}
CP_COUNTERS = ("cprand.sweeps_run", "cprand.degenerate_solves", "cprand.stopped_below_target")
OVERHEAD_NOTE_SHARE = 0.2  # flag a layer whose self time may be inflated this much by span cost


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("distortion", "ls", "cp", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, to test the harness")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="ascii").strip()
        return ref
    except OSError:
        return "unknown"


def environment(args, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "git_revision": git_revision(), "machine": platform.machine(),
    }


@dataclass
class Rounds:
    times: list = field(default_factory=list)
    cpu_times: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    prints: list = field(default_factory=list)

    def run(self, workload, inputs):
        t0, c0 = time.perf_counter(), time.process_time()
        out = workload.run_round(inputs)
        self.times.append(time.perf_counter() - t0)
        self.cpu_times.append(time.process_time() - c0)
        self.outputs.append(out)
        self.prints.append(workload.fingerprint(inputs, out))


def run_rounds(workload, inputs, budget_s, tracer=None) -> tuple[Rounds, Rounds]:
    """Closed loop of steps until the workload's minimum is met and one more
    step (at the median step time so far) would end past ``budget_s``.

    A step is one round; with a tracer it is an untraced round followed by a
    traced one, so slow drift of the machine affects both sides alike.
    """
    plain, traced = Rounds(), Rounds()
    steps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.run(workload, inputs)
        if tracer is not None:
            tracer.install()
            try:
                traced.run(workload, inputs)
            finally:
                tracer.uninstall()
        steps.append(time.perf_counter() - t0)
        if (len(steps) >= getattr(workload, "min_rounds", 1)
                and time.perf_counter() - start + statistics.median(steps) > budget_s):
            return plain, traced


def import_seconds(src: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def tail(values):
    """The highest percentile with at least 10 samples beyond it."""
    n = len(values)
    if n <= 10:
        return None, None
    k = n - 10
    return sorted(values)[k - 1], 100.0 * k / n


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "kfjlt" / "__init__.py").is_file():
        print(f"perfbench: no library source at {src}/kfjlt; run from a kfjlt checkout", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy as np
    import kfjlt
    import kfjlt.cli  # noqa: F401  (the CLI module is part of the distortion workload)
    import_s = time.perf_counter() - t0
    if Path(kfjlt.__file__).resolve().parent != (src / "kfjlt").resolve():
        print(f"perfbench: imported kfjlt from {kfjlt.__file__}, not {src}", file=sys.stderr)
        return 2

    import layers
    import workloads

    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](out_dir, args.smoke)
    env = environment(args, np)
    print("perfbench env " + json.dumps(env, sort_keys=True))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        inputs = None
        imported = import_seconds(src)
        t0 = time.perf_counter()
        inputs = workload.make_inputs(args.seed)
        setup_times.append(imported + time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    tracer = layers.Tracer() if args.trace else None
    plain, traced = run_rounds(workload, inputs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times, outputs = plain.times, plain.outputs

    all_outputs = outputs + traced.outputs
    report = workload.check(inputs, outputs[0])
    wrong = list(report.wrong)
    if any(p != plain.prints[0] for p in plain.prints + traced.prints):
        wrong.append("a later round (or the traced run) did not reproduce the first round's outputs")
    attempted = sum(o.units for o in all_outputs)
    unit_failed = sum(o.unit_failed for o in all_outputs)
    # The first round's check verdict stands for every round, which reproduce it.
    failed = min(attempted, unit_failed + report.failed * len(all_outputs))
    if wrong:
        failed = attempted
    correct = not wrong

    units = sum(o.units for o in outputs)
    wall = sum(times)
    cpu = sum(plain.cpu_times)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "cpu_s": (cpu / len(times), "s"),
        "units_per_cpu_s": (units / cpu, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "wall_s": (statistics.median(times), "s"),
        "units_per_s": (units / wall, "1/s"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    if "accuracy_gap" in report.notes:
        extra["accuracy_gap"] = (report.notes["accuracy_gap"], "ratio")
    unit_ms = [ms for o in outputs for ms in o.unit_ms]
    if unit_ms:
        extra["unit_p50_ms"] = (statistics.median(unit_ms), "ms")
        value, pct = tail(unit_ms)
        if value is not None:
            extra[f"unit_tail_ms(p{pct:.1f},n={len(unit_ms)})"] = (value, "ms")

    print(f"perfbench workload={args.workload} unit={workload.unit} rounds={len(times)} "
          f"units/round={outputs[0].units} import_s={import_s:.4f} "
          f"setup_runs_s={[round(t, 4) for t in setup_times]}")
    for name, (value, unit) in {**end_to_end, **extra}.items():
        print(f"metric {name} = {value} {unit}")
    for key, value in report.notes.items():
        print(f"check {key} = {value}")
    for line in wrong:
        print(f"WRONG {line}")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    manifest = {"env": env, "rounds_s": times, "rounds_cpu_s": plain.cpu_times,
                "setup_runs_s": setup_times, "import_s": import_s,
                "metrics": {k: v for k, (v, _) in {**end_to_end, **extra}.items()},
                "checks": report.notes, "wrong": wrong}
    if tracer is not None:
        metrics = per_layer_metrics(tracer, layers, workload, plain, traced)
        manifest["per_layer"] = {k: v["value"] for k, v in metrics.items()}
        tracer.write_spans(out_dir / "spans.csv")
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True, default=str)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def per_layer_metrics(tracer, layers, workload, plain: Rounds, traced: Rounds) -> dict:
    rounds = len(traced.times)
    self_s, calls, top_ns = tracer.self_times()
    traced_wall = sum(traced.times)
    metrics = {}
    span_cost = layers.span_cost_s()
    print(f"trace rounds={rounds} traced_wall_s={traced_wall:.4f} spans={len(tracer.spans)} "
          f"span_cost_us={span_cost * 1e6:.3f}")
    for layer, fields in LAYER_FIELDS.items():
        i = layers.LAYER_NAMES.index(layer)
        counts = tracer.counts[layer]
        values = {
            "calls": calls[i] // rounds,
            "self_s": self_s[i] / rounds,
            "degenerate_frac": counts.get("degenerate", 0) / calls[i] if calls[i] else 0.0,
        }
        for f in fields:
            value = values[f] if f in values else counts.get(f, 0) // rounds
            metrics[f"{layer}.{f}"] = {"value": value, "unit": FIELD_UNITS[f]}
        if calls[i]:
            share = self_s[i] / traced_wall
            inflation = calls[i] * span_cost / self_s[i] if self_s[i] > 0 else float("inf")
            note = (f"  (span cost may inflate this self time ~{inflation:.0%})"
                    if inflation > OVERHEAD_NOTE_SHARE else "")
            print(f"layer {layer:22s} calls/round={calls[i] // rounds:8d} self_s/round={self_s[i] / rounds:.6f} "
                  f"share={share:6.1%}{note}")
    counters = {}
    for out in traced.outputs:
        for k, v in getattr(workload, "counters", lambda o: {})(out).items():
            counters[k] = counters.get(k, 0) + v
    for name in CP_COUNTERS:
        metrics[name] = {"value": counters.get(name, 0) // rounds, "unit": "count"}
    remainder = traced_wall - top_ns * 1e-9
    overhead = statistics.median(traced.times) / statistics.median(plain.times) - 1.0
    metrics["trace.wall_s"] = {"value": traced_wall / rounds, "unit": "s"}
    metrics["trace.untraced_s"] = {"value": remainder / rounds, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    print(f"trace accounting per round: wall_s={traced_wall / rounds:.6f} = "
          f"sum(self_s)={sum(self_s) / rounds:.6f} + untraced_s={remainder / rounds:.6f}")
    print(f"trace overhead_frac={overhead:.4f} (median traced round / median untraced round - 1)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
