#!/usr/bin/env python3
"""Repository benchmark for the Darwin-WGA reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pair-homolog --seed 1 --seconds 30 --trace 0

Builds the benchmark package (``perfbench/Cargo.toml``), generates the
workload's inputs from ``--seed``, and then:

* runs every job once at one thread as the reference: its canonical-text
  digest and deterministic counts are what every later run must match;
* runs the jobs back to back (closed loop, one client) for ``--seconds``,
  each job a fresh process with tracing off, and reports the end-to-end
  metrics as medians over the repeats of each job, summed over the jobs;
* with ``--trace 1``, also runs the traced composition of every job and
  reports the per-layer metrics instead, after checking that the traced
  counts and alignment set equal the end-to-end run's exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted``
counts chromosome pairs; ``failed`` counts pairs that ended Failed or
Degraded plus runs whose output did not match the reference.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("pair-homolog", "pair-distant", "many-matrix")
MIN_REPEATS = 3
# Set-up-only runs of a job before each of its timed runs: set-up takes
# milliseconds, so its median needs more samples than the jobs give.
SETUP_PROBES = 3
# Span names that group layer calls rather than being a layer.
STRUCTURAL = {"run", "pair", "exec"}


class BenchError(Exception):
    pass


def build():
    """Builds the benchmark package; returns its executable."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or BENCH / "target")
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        raise BenchError(f"cannot run cargo: {e}")
    if done.returncode != 0:
        raise BenchError("building the benchmark failed")
    return target / "release" / "wga-perfbench"


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def run_job(binary, kind, files, threads, out, mode="", run_id=0):
    """Runs one job in a fresh process; returns its result with `cpu_s`
    added, or None when the process failed. `mode` is "" for a timed
    run, "setup-" for a set-up-only run and "trace-" for the traced
    composition."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    args = [str(binary), mode + kind, *files, "--threads", str(threads)]
    if kind == "align":
        args += ["--maf", str(out / "out.maf")]
    else:
        args += ["--report-out", str(out / "report.txt"),
                 "--paf-out", str(out / "out.paf"),
                 "--checkpoint", str(out / "ckpt")]
    if mode == "trace-":
        args += ["--spans", str(out / "spans.jsonl"), "--run-id", str(run_id)]
    with open(out / "stdout", "w") as so, open(out / "stderr", "w") as se:
        proc = subprocess.Popen(args, stdout=so, stderr=se)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write((out / "stderr").read_text())
        return None
    try:
        result = last_json((out / "stdout").read_text())
    except json.JSONDecodeError:
        return None
    if result is not None:
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
    return result


def ratio(num, den):
    return num / den if den else 0.0


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def measure(binary, spec, refs, seconds, work, refs_start):
    """Closed loop: one client runs the jobs round-robin, each as soon as
    the previous one ended, until `seconds` have passed and every job ran
    at least MIN_REPEATS times. Returns per-job samples, per-job set-up
    times and the failure tally.

    At one thread a reference run is a timed run like the others (same
    arguments, a fresh process, tracing off), so it counts as the job's
    first repeat and the measured time starts at `refs_start`."""
    jobs = spec["jobs"]
    reuse = spec["threads"] == 1
    samples = [[ref] if reuse else [] for ref in refs]
    setups = [[ref["setup_s"]] if reuse else [] for ref in refs]
    attempted = sum(ref["pairs"] for ref in refs) if reuse else 0
    failed = sum(judge(ref, ref)[0] for ref in refs) if reuse else 0
    problems = []
    start = refs_start if reuse else time.monotonic()
    runs = len(jobs) if reuse else 0
    while runs < MIN_REPEATS * len(jobs) or time.monotonic() - start < seconds:
        j = runs % len(jobs)
        runs += 1
        for _ in range(SETUP_PROBES):
            probe = run_job(binary, spec["kind"], jobs[j], spec["threads"],
                            work / f"setup{j}", mode="setup-")
            if probe is None:
                raise BenchError(f"set-up of job {j} failed")
            setups[j].append(probe["setup_s"])
        r = run_job(binary, spec["kind"], jobs[j], spec["threads"], work / f"job{j}")
        attempted += refs[j]["pairs"]
        bad, problem = judge(r, refs[j])
        failed += bad
        if problem:
            problems.append(f"job {j}: {problem}")
        if r is not None:
            samples[j].append(r)
            setups[j].append(r["setup_s"])
    return samples, setups, attempted, failed, problems


def judge(r, ref):
    """Failed operations in one timed run, and what was wrong with it.

    Pairs that ended Failed or Degraded count one each. A run whose
    output digest or deterministic counts differ from the reference run
    counts at least one: a degraded pair changes the output too, so the
    mismatch adds nothing when a pair is already counted. A crashed run
    counts all of its pairs."""
    if r is None:
        return ref["pairs"], "process failed"
    if r["digest"] != ref["digest"] or r["counts"] != ref["counts"] or r["resumed"]:
        return max(r["pairs_bad"], 1), "output differs from the reference"
    if r["pairs_bad"]:
        return r["pairs_bad"], f"{r['pairs_bad']} pair(s) failed or degraded"
    return 0, None


def end_to_end(refs, samples, setups):
    done = [s for s in samples if s]
    if len(done) != len(samples):
        return None
    wall = sum(median_of(s, "wall_s") for s in done)
    return {
        "wall_s": (wall, "s"),
        "kbp_per_s": (ratio(sum(r["query_bp"] for r in refs) / 1000.0, wall), "kbp/s"),
        "setup_s": (sum(statistics.median(s) for s in setups), "s"),
        "peak_rss_mb": (median_of([r for s in done for r in s], "peak_rss_mb"), "MB"),
        "matched_bp": (sum(r["counts"]["matched_bp"] for r in refs), "bp"),
    }


def add_up(items, key):
    total = {}
    for item in items:
        for k, v in item[key].items():
            total[k] = total.get(k, 0) + v
    return total


def per_layer(spec, samples, traces, e2e, failed, attempted):
    own = add_up(traces, "self_s")
    counts = add_up(traces, "counts")
    extra = add_up(traces, "extra")
    layer_s = sum(v for k, v in own.items() if k not in STRUCTURAL)
    t = lambda name: own.get(name, 0.0)
    wall = e2e["wall_s"][0]
    threads = spec["threads"]
    filter_hw_s = sum(tr["filter_hw_s"] for tr in traces)
    extend_hw_s = sum(tr["extend_hw_s"] for tr in traces)
    runs = extra["extend_runs"]
    m = {
        "genome.read_s": (t("genome.read"), "s"),
        "genome.read_mb_per_s": (ratio(extra["input_bytes"] / 1e6, t("genome.read")), "MB/s"),
        "seed.table_s": (t("seed.table"), "s"),
        "seed.table_positions": (extra["table_positions"], "count"),
        "seed.dsoft_s": (t("seed.dsoft"), "s"),
        "seed.seeds_queried": (counts["seeds"], "count"),
        "seed.hits": (extra["seed_hits"], "count"),
        "filter.s": (t("filter"), "s"),
        "filter.share": (ratio(t("filter"), layer_s), "ratio"),
        "filter.tiles": (counts["filter_tiles"], "count"),
        "filter.cells": (counts["filter_cells"], "count"),
        "filter.mcells_per_s": (ratio(counts["filter_cells"] / 1e6, t("filter")), "Mcells/s"),
        "filter.pass_ratio": (ratio(counts["anchors_passed"], counts["filter_tiles"]), "ratio"),
        "filter.hw_cycles": (extra["filter_hw_cycles"], "cycles"),
        "filter.sw_over_hw": (ratio(t("filter"), filter_hw_s), "x"),
        "extend.s": (t("extend"), "s"),
        "extend.share": (ratio(t("extend"), layer_s), "ratio"),
        "extend.runs": (runs, "count"),
        "extend.absorbed": (counts["anchors_absorbed"], "count"),
        "extend.tiles": (counts["extension_tiles"], "count"),
        "extend.cells": (counts["extension_cells"], "count"),
        "extend.rows": (counts["extension_rows"], "count"),
        "extend.mcells_per_s": (ratio(counts["extension_cells"] / 1e6, t("extend")), "Mcells/s"),
        "extend.kept_ratio": (ratio(counts["alignments_kept"], runs), "ratio"),
        # Each job is traced in its own process: the largest growth, not the sum.
        "extend.rss_growth_mb": (
            max(tr["extra"]["extend_rss_growth_kb"] for tr in traces) / 1024.0, "MB"),
        "extend.hw_cycles": (extra["extend_hw_cycles"], "cycles"),
        "extend.sw_over_hw": (ratio(t("extend"), extend_hw_s), "x"),
        "absorb.s": (t("absorb"), "s"),
        "chain.s": (t("chain"), "s"),
        "chain.chains": (counts.get("chains", 0), "count"),
        "maf.write_s": (t("maf.write"), "s"),
        "maf.bytes": (extra["maf_bytes"], "bytes"),
        "paf.s": (t("paf"), "s"),
        "paf.bytes": (extra["paf_bytes"], "bytes"),
        "report.write_s": (t("report.write"), "s"),
        "report.bytes": (extra["report_bytes"], "bytes"),
        "journal.append_s": (t("journal.append"), "s"),
        "journal.bytes": (extra["journal_bytes"], "bytes"),
        "pangenome.plan_s": (t("pangenome.plan"), "s"),
        "pangenome.index_s": (t("pangenome.index"), "s"),
        "pangenome.index_builds": (extra["index_builds"], "count"),
        "pangenome.index_hits": (extra["index_hits"], "count"),
        "pangenome.sweep_s": (t("pangenome.sweep"), "s"),
        "pangenome.sweep_removed": (extra["sweep_removed"], "count"),
        "exec.parallel_eff": (ratio(layer_s, wall * threads), "ratio"),
        "exec.cpu_s": (sum(median_of(s, "cpu_s") for s in samples), "s"),
        "exec.spec_discard": (sum(median_of(s, "spec_discard") for s in samples), "count"),
        "trace.overhead_ratio": (ratio(sum(tr["traced_s"] for tr in traces), wall), "ratio"),
        "trace.spans": (extra["spans"], "count"),
        "pairs_failed_ratio": (ratio(failed, attempted), "ratio"),
    }
    return m


def check_traces(refs, traces):
    """The traced composition must describe the program exactly."""
    problems = []
    for j, (ref, tr) in enumerate(zip(refs, traces)):
        if tr is None:
            problems.append(f"job {j}: traced run failed")
            continue
        if tr["counts"] != ref["counts"]:
            diff = {k: (tr["counts"].get(k), v) for k, v in ref["counts"].items()
                    if tr["counts"].get(k) != v}
            problems.append(f"job {j}: traced counts differ (traced, program): {diff}")
        if tr["aln_digest"] != ref["aln_digest"]:
            problems.append(f"job {j}: traced alignment set differs")
        if tr["program_counts"] is not None and (
                tr["program_counts"] != ref["counts"]
                or tr["program_aln_digest"] != ref["aln_digest"]):
            problems.append(f"job {j}: traced program run differs from the reference")
    return problems


def run(args):
    binary = build()
    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    gen = [str(binary), "gen", args.workload, str(args.seed), str(work / "inputs")]
    if args.tiny:
        gen.append("--tiny")
    done = subprocess.run(gen, capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"input generation failed: {done.stderr.strip()}")
    spec = last_json(done.stdout)

    refs_start = time.monotonic()
    refs = []
    for j, files in enumerate(spec["jobs"]):
        ref = run_job(binary, spec["kind"], files, 1, work / f"ref{j}")
        if ref is None:
            raise BenchError(f"reference run of job {j} failed")
        refs.append(ref)

    samples, setups, attempted, failed, problems = measure(
        binary, spec, refs, args.seconds, work, refs_start)
    e2e = end_to_end(refs, samples, setups)
    if e2e is None:
        raise BenchError("a job failed on every repeat")
    metrics = e2e
    if args.trace:
        traces = [run_job(binary, spec["kind"], files, spec["threads"], work / f"trace{j}",
                          mode="trace-", run_id=args.seed)
                  for j, files in enumerate(spec["jobs"])]
        problems += check_traces(refs, traces)
        if any(tr is None for tr in traces):
            raise BenchError("a traced run failed")
        metrics = per_layer(spec, samples, traces, e2e, failed, attempted)
    else:
        metrics["pairs_ok_ratio"] = (1.0 - ratio(failed, attempted), "ratio")

    for p in problems:
        print(f"# check failed: {p}")
    reps = [len(s) for s in samples]
    print(f"# {args.workload} seed {args.seed}: {len(reps)} job(s), {spec['threads']} thread(s) "
          f"on {os.cpu_count()} CPU(s), repeats per job {reps}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="inputs a tenth of the size, for the benchmark's own tests")
    args = ap.parse_args()
    try:
        result = run(args)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
