"""Time-to-verdict benchmark for lorcheck.

Run from the repository root:

    python3 perfbench/run.py --workload {check,sec,replay} --seed N \
        --seconds 30 --trace {0,1}

The seed generates the corpus (see corpus.py) under .perfbench-work/.  Each
instance is one in-process call of ``lorcheck.cli.main``, one at a time, in
one process with no threads, pinned to one CPU.  A run makes a fixed number of passes over the
corpus, PASSES scaled by --seconds / REFERENCE_SECONDS, so every run of a
workload measures the same work; at 30 seconds a whole run, set-ups and
witness replays included, takes 23 to 37 seconds on a 2-core x86 container.
Before every pass the corpus is generated and written again, and that
set-up is timed.  After each pass, outside the timed region, every witness
a ``check``/``sec`` instance wrote is replayed with ``verify-witness``.

Between every two timed steps the run times the reference job of
calibrate.py.  Every time is scaled by REFERENCE_S over the mean of the
reference times just before and after it, so it reads as seconds on a host
where the reference job takes REFERENCE_S; the report gives the median
factor of each pass.  On a shared host this takes out most of the changes of
CPU speed within and between runs, which are larger than the bounds.

The last line of standard output is one JSON object.  With --trace 0 its
metrics are the end-to-end ones:

  par2_s         sum over instances of the median time to a correct verdict;
                 an instance without one in every pass (undecided, wrong,
                 crashed, over the limit) is charged twice LIMIT_S
  verdict_s_p50  median time to a correct verdict, over every decided run
  verdict_s_tail highest percentile of those with at least ten runs beyond it
  decided_frac   correct verdicts / runs attempted
  setup_s        median time of one corpus generation with its file writing
  peak_rss_mb    the process's peak resident set size

With --trace 1, passes alternate untraced and traced; the metrics are the
per-module ones of tracer.py (counts from the first traced pass, times as
medians over traced passes) plus trace.overhead_s, the traced minus the
untraced par2_s.  Spans are written to .perfbench-work/spans.jsonl.

The exit code is 0 whenever a result is printed, also when some instance
failed; a missing or broken program source tree, or a corpus generator that
disagrees with enumeration, exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("check", "sec", "replay")
LIMIT_S = 10.0            # per-instance limit, several times the slowest
# Passes per REFERENCE_SECONDS of --seconds.
REFERENCE_SECONDS = 30
PASSES = {"check": 8, "sec": 7, "replay": 8}
RUN_CAP = 3               # no pass starts later than RUN_CAP x --seconds
E2E_UNITS = {"par2_s": "s", "verdict_s_p50": "s", "verdict_s_tail": "s",
             "decided_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


class _OverLimit(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test swallows it."""


def _alarm(signum, frame):
    raise _OverLimit()


def load_program(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lorcheck", "cli.py")):
        sys.exit("perfbench: no lorcheck sources under %s" % src)
    sys.path[:0] = [src, HERE]
    import lorcheck
    if not os.path.abspath(lorcheck.__file__).startswith(src + os.sep):
        sys.exit("perfbench: imported lorcheck from %s, not from %s"
                 % (lorcheck.__file__, src))


def run_command(main, argv):
    """One lorcheck command in-process: (exit code or failure name, seconds,
    standard error)."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        signal.setitimer(signal.ITIMER_REAL, 0)
    except _OverLimit:
        code = "over-limit"
    except Exception as e:  # a crash of lorcheck is a failed run, not ours
        signal.setitimer(signal.ITIMER_REAL, 0)
        code = "crash:" + type(e).__name__
    return code, time.perf_counter() - t0, err.getvalue()


def judge(inst, code, replay_code):
    """'ok', 'wrong' (a definite answer that differs from the known one, or
    a witness that does not replay) or 'failed' (no answer)."""
    from corpus import EXIT_CODE
    if code not in (0, 1):
        return "failed"
    if code != EXIT_CODE[inst.answer]:
        return "wrong"
    if inst.replay is not None and replay_code != 0:
        return "wrong"
    return "ok"


def run_pass(main, make_corpus, tracer=None):
    """Set up the corpus, then time every instance once.  A reference job
    runs before the set-up, between every two timed steps and after the
    last; each time is scaled by REFERENCE_S over the mean of the reference
    times just before and after it.  Returns the corpus, the scaled set-up
    seconds, the median scale factor of the pass and [(instance, verdict,
    scaled seconds, detail)]."""
    from calibrate import REFERENCE_S, reference_seconds
    reference = [reference_seconds()]
    t0 = time.perf_counter()
    corpus = make_corpus()
    setup = time.perf_counter() - t0
    reference.append(reference_seconds())
    results = []
    for inst in corpus.instances:
        if tracer:
            tracer.begin(inst.name)
            tracer.install()
        gc.collect()
        try:
            code, dt, err = run_command(main, inst.argv)
        finally:
            if tracer:
                tracer.uninstall()
        results.append((inst, code, dt, err))
        reference.append(reference_seconds())

    def scaled(k, seconds):
        return seconds * 2 * REFERENCE_S / (reference[k] + reference[k + 1])

    out = []
    for k, (inst, code, dt, err) in enumerate(results, 1):
        replay_code = None
        if inst.replay is not None and code in (0, 1):
            replay_code = run_command(main, inst.replay)[0]
        detail = "exit %s" % code
        if replay_code is not None:
            detail += ", witness replay exit %s" % replay_code
        last = err.strip().splitlines()[-1:] if err.strip() else []
        if last:
            detail += ": " + last[0][:100]
        out.append((inst, judge(inst, code, replay_code), scaled(k, dt),
                    detail))
    return (corpus, scaled(0, setup),
            REFERENCE_S / statistics.median(reference), out)


def par2(results_by_pass, instances):
    """Sum over instances of the median over passes of the PAR-2 charge."""
    total = 0.0
    for i in range(len(instances)):
        charges = [p[i][2] if p[i][1] == "ok" else 2 * LIMIT_S
                   for p in results_by_pass]
        total += statistics.median(charges)
    return total


def percentile(sorted_times, pct):
    """Nearest-rank percentile."""
    return sorted_times[max(1, math.ceil(pct / 100 * len(sorted_times))) - 1]


def tail_percentile(n):
    """The highest whole percentile with at least ten of n samples beyond
    it."""
    return max(0, math.floor(100 * (1 - 10 / n)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    load_program(root)
    from lorcheck.cli import main as lorcheck_main
    from corpus import Corpus, self_check
    from tracer import Tracer, UNITS

    bad = self_check(args.workload)
    if bad:
        sys.exit("perfbench: corpus generator disagrees with enumeration:"
                 "\n  " + "\n  ".join(bad))

    work = os.path.join(root, ".perfbench-work")
    corpus_dir = os.path.join(work, args.workload)
    passes = max(1, round(
        PASSES[args.workload] * args.seconds / REFERENCE_SECONDS))
    if args.trace:
        passes = max(2, passes + passes % 2)
    signal.signal(signal.SIGALRM, _alarm)
    # The CPUs of a shared host can differ in speed; a run that moved
    # between them would mix two speeds in the times of one instance.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    untraced, traced, tracers, setup_times, scales = [], [], [], [], []
    t_start = time.perf_counter()

    def make_corpus():
        corpus = Corpus(args.workload, args.seed, corpus_dir)
        corpus.write()
        return corpus

    for p in range(passes):
        shutil.rmtree(corpus_dir, ignore_errors=True)
        tracer = Tracer() if args.trace and p % 2 else None
        corpus, setup_s, scale, res = run_pass(lorcheck_main, make_corpus,
                                               tracer)
        setup_times.append(setup_s)
        scales.append(scale)
        (traced if tracer else untraced).append(res)
        if tracer:
            tracers.append((tracer, scale))
        # a much slower program must still end within the run-time limit
        if (time.perf_counter() - t_start > RUN_CAP * args.seconds
                and (traced or not args.trace)):
            break
    all_passes = untraced + traced
    instances = corpus.instances

    print("workload %s, seed %d: %d instances, %d untraced + %d traced "
          "passes, one process, one instance at a time"
          % (args.workload, args.seed, len(instances), len(untraced),
             len(traced)))
    attempted = failed = 0
    correct = True
    for i, inst in enumerate(instances):
        runs = [p[i] for p in all_passes]
        verdicts = [r[1] for r in runs]
        attempted += len(runs)
        failed += sum(v != "ok" for v in verdicts)
        correct &= "wrong" not in verdicts
        med = statistics.median(r[2] for r in runs)
        print("  %-20s %-12s %8.4f s  %s" % (
            inst.name, inst.answer, med, inst.why))
        for verdict in sorted(set(verdicts) - {"ok"}):
            r = next(r for r in runs if r[1] == verdict)
            print("  FLAGGED %s: %s in %d of %d runs (%s)%s" % (
                inst.name, verdict, verdicts.count(verdict), len(runs), r[3],
                "; known defect: " + inst.defect if inst.defect else ""))
    print("  times are scaled, median factor by pass: "
          + " ".join("%.3f" % s for s in scales))

    # with no decided run at all, the timings read as charged runs
    decided = sorted(r[2] for p in untraced for r in p
                     if r[1] == "ok") or [2 * LIMIT_S]
    if args.trace:
        metrics = {}
        per_pass = [{k: v * scale if UNITS[k] == "s" else v
                     for k, v in t.metrics().items()}
                    for t, scale in tracers]
        first = per_pass[0]
        for key, unit in UNITS.items():
            vals = [m[key] for m in per_pass]
            if unit == "s":
                metrics[key] = statistics.median(vals)
            else:
                metrics[key] = first[key]
                if any(v != first[key] for v in vals):
                    print("  NONDETERMINISTIC %s: %s" % (key, vals))
        metrics["trace.overhead_s"] = (par2(traced, instances)
                                       - par2(untraced, instances))
        units = dict(UNITS, **{"trace.overhead_s": "s"})
        spans = os.path.join(work, "spans.jsonl")
        if os.path.exists(spans):
            os.remove(spans)
        for n, (t, _) in enumerate(tracers):
            t.dump(spans, n)
    else:
        pct = tail_percentile(len(decided))
        metrics = {
            "par2_s": par2(untraced, instances),
            "verdict_s_p50": percentile(decided, 50),
            "verdict_s_tail": percentile(decided, pct),
            "decided_frac": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
        print("  verdict_s_tail is p%d of %d decided runs; per-instance "
              "limit %.0f s" % (pct, len(decided), LIMIT_S))
    for key, val in metrics.items():
        print("  %-36s %14.6f %s" % (key, val, units[key]))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
