"""ncphase benchmark: one closed-loop client per run, three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 12 --trace 0

Each run spawns fresh interpreters running ``client.py`` with
``PYTHONPATH=src`` and BLAS/OpenMP threads pinned to 1.  Seven spawns
that only import ``ncphase.cli`` plus the measuring client give
``setup_s`` (their median).  The measuring client then runs whole rounds
of the workload's seeded request stream until ``--seconds`` of request
time have been measured; the benchmark writes every input file and
checks every output between requests.  With ``--trace 1`` a second
client replays the same stream with every public ncphase function
wrapped in spans (``tracer.py``); the per-layer metrics come from that
traced run, the end-to-end ones from the untraced run before it.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units are the ones in
``BENCHMARK.json``.  The lines before it give the same numbers for
people, with the context the JSON has no room for: the tail percentile
and its sample count, ``failed_ratio`` and its base, the worst deviation
of every output check, exact counts and a digest of round 0, and the
environment.  ``NOTES.md`` explains the choices.
"""
import argparse
import bisect
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from client import REF_EVERY_S, SETUP_REFS
from workloads import BRANCHES, WORK, WORKLOADS, Reply, fail

CLIENT = Path(__file__).with_name("client.py")
SETUP_PROBES = 7
# Time of client.ref_sample on an unloaded vCPU of the 2-vCPU x86 virtual machine
# this benchmark was tuned on (5th percentile of 600 samples).  Every
# reported time is its wall time times REF_NOMINAL_S over the reference
# time measured around it: seconds at that CPU's unloaded speed.
REF_NOMINAL_S = 0.0018
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS", "NUMBA_NUM_THREADS")


class Child:
    """One client interpreter; ``setup_s`` is spawn-to-ready wall time."""

    def __init__(self, root, cpu=None, trace_path=None):
        # A fixed mmap threshold (glibc's initial value) stops glibc from
        # raising it after a large free; without it the same round peaked
        # at 116 or 138 MB depending on what earlier requests had freed.
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                   MALLOC_MMAP_THRESHOLD_="131072", **dict.fromkeys(THREAD_VARS, "1"))
        cmd = [sys.executable, str(CLIENT)] + (["--trace", trace_path] if trace_path else [])
        cmd += ["--cpu", str(cpu)] if cpu is not None else []
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.ready = self._read()
        self.setup_s = time.perf_counter() - t0
        self.refs = RefClock()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"client exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        final = self.call({"quit": True})
        self.proc.stdin.close()
        self.proc.wait(timeout=120)
        return final

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Record:
    id: int
    round: int          # -1 for warm-up requests
    label: str
    start: float        # client clock
    wall: float         # request wall time less the reference runs inside it
    ok: bool
    units: float
    counts: dict
    devs: dict
    reason: str
    digest: str         # sha256 over exit code, stdout, stderr and every output file
    stdout_bytes: int
    file_bytes: int
    ref: float = REF_NOMINAL_S  # mean reference time around the request

    @property
    def norm(self):
        return self.wall * REF_NOMINAL_S / self.ref

    def key(self):
        """What two runs with one seed must reproduce exactly."""
        return [self.label, self.digest, self.counts]


@dataclass
class Phase:
    records: list
    setup_s: float      # normalized like request times
    rss_kb: int
    rounds: int
    elapsed: float
    absent: list = field(default_factory=list)


def sha(data):
    return hashlib.sha256(data).hexdigest()


class RefClock:
    """Reference samples of one client, and their mean over a request.

    A request with two or more reference runs inside it uses those;
    a shorter one uses the runs within ``margin`` of it.  Runs taken
    while the client waits for its next request describe the CPU less
    well than runs taken inside the work.
    """

    def __init__(self):
        self.starts, self.durs = [], []

    def add(self, samples):
        for start, dur in samples:
            self.starts.append(start)
            self.durs.append(dur)

    def around(self, start, end, margin=1.2 * REF_EVERY_S):
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < 2:
            lo = bisect.bisect_left(self.starts, start - margin)
            hi = bisect.bisect_right(self.starts, end + margin)
        if lo == hi:  # no sample near: take the nearest one
            lo = min(max(lo - 1, 0), len(self.durs) - 1)
            hi = lo + 1
        return statistics.fmean(self.durs[lo:hi])


def execute(root, child, req, rid):
    for path, text in req.inputs.items():
        (root / path).write_text(text)
    out, err = f"{WORK}/stdout.txt", f"{WORK}/stderr.txt"
    ans = child.call({"id": rid, "argv": req.argv, "stdout": out, "stderr": err})
    child.refs.add(ans["refs"])
    files = {}
    for path in [out, err] + req.outputs:
        p = root / path
        files[path] = p.read_bytes() if p.exists() else None
        p.unlink(missing_ok=True)
    reply = Reply(ans["exit"], ans["wall"], ans["error"], files.pop(out), files.pop(err), files)
    return reply, ans


def run_phase(root, workload, seconds, cpu, trace_path=None):
    """Warm up, then run whole rounds until ``seconds`` of normalized request time."""
    records = []
    with Child(root, cpu, trace_path) as child:
        def drive(gen, round_no):
            req = next(gen, None)
            while req is not None:
                reply, ans = execute(root, child, req, len(records))
                try:
                    verdict = req.check(reply)
                except Exception as err:  # malformed output is a failed check
                    verdict = fail(f"check raised {type(err).__name__}: {err}")
                reply.verdict = verdict
                h = hashlib.sha256(json.dumps([req.argv, reply.exit]).encode())
                for part in [reply.stdout, reply.stderr] + [reply.files[p] or b"" for p in req.outputs]:
                    h.update(sha(part).encode())
                records.append(Record(
                    len(records), round_no, req.label, ans["start"], reply.wall, verdict.ok,
                    verdict.units if verdict.ok else 0.0, verdict.counts, verdict.devs,
                    verdict.reason, h.hexdigest(), len(reply.stdout),
                    sum(len(reply.files[p] or b"") for p in req.outputs),
                    child.refs.around(ans["start"], ans["end"])))
                try:
                    req = gen.send(reply)
                except StopIteration:
                    req = None

        drive(workload.warmup(), -1)
        t0 = time.perf_counter()
        rounds = 0
        while rounds == 0 or sum(r.norm for r in records if r.round >= 0) < seconds:
            drive(workload.round(rounds), rounds)
            rounds += 1
        elapsed = time.perf_counter() - t0
        final = child.close()
        child.refs.add(final["refs"])
    # now that every sample is in, use the ones taken after each request too
    for r in records:
        r.ref = child.refs.around(r.start, r.start + r.wall)
    setup = child.setup_s * REF_NOMINAL_S / statistics.median(child.refs.durs[:SETUP_REFS])
    return Phase(records, setup, final["rss_kb"], rounds, elapsed, child.ready["absent"])


def end_to_end(phase):
    timed = [r for r in phase.records if r.round >= 0]
    walls = sorted(r.norm for r in timed)
    n = len(walls)
    tail_i = max(0, n - 11)  # the highest rank with ten samples beyond it
    return {
        "units_per_s": sum(r.units for r in timed) / sum(walls),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": walls[tail_i],
        "peak_rss_mb": phase.rss_kb / 1024.0,
    }, {"tail_pct": 100.0 * (tail_i + 1) / n, "n": n, "beyond": n - 1 - tail_i}


def span_metrics(path):
    """Self time and call count per span, counters, and per-request residual3d calls."""
    z = np.load(path)
    meta = json.loads(str(z["meta"]))
    names = meta["names"]
    nid, parent = z["name"], z["parent"]
    dur = (z["end"] - z["start"]) / 1e9
    has = parent >= 0
    self_t = dur - np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    out = {}
    self_by = np.bincount(nid, weights=self_t, minlength=len(names))
    calls_by = np.bincount(nid, minlength=len(names))
    for i, name in enumerate(names):
        out[f"{name}.self_s"] = float(self_by[i])
        out[f"{name}.calls"] = int(calls_by[i])
    per_request = {}
    for rid, key, value in meta["counts"]:
        out[key] = out.get(key, 0) + value
        per_request.setdefault(rid, {})[key] = per_request.get(rid, {}).get(key, 0) + value
    if "backend.residual3d" in names and "nc3d.solve_3d" in names:
        res_id, solve_id = names.index("backend.residual3d"), names.index("nc3d.solve_3d")
        inside = nid == solve_id
        for _ in range(64):  # spans nest far less than 64 deep
            grown = inside | (has & inside[np.where(has, parent, 0)])
            if (grown == inside).all():
                break
            inside = grown
        out["nc3d.solve_3d.residual3d_calls"] = int((inside & (nid == res_id)).sum())
        for rid, c in zip(*np.unique(z["req"][nid == res_id], return_counts=True)):
            per_request.setdefault(int(rid), {})["backend.residual3d.calls"] = int(c)
    out["algebra.self_s"] = sum(v for k, v in out.items() if k.startswith("algebra.") and k.endswith(".self_s"))
    out["nc3d.params3d_json.self_s"] = (out.get("nc3d.params3d_to_json.self_s", 0.0)
                                        + out.get("nc3d.params3d_from_json.self_s", 0.0))
    calls = out.get("nc3d.solve_3d.calls", 0)
    iters = out.get("nc3d.solve_3d.iterations", 0)
    out["nc3d.solve_3d.converged_ratio"] = out.get("nc3d.solve_3d.converged", 0) / calls if calls else 0.0
    out["nc3d.residual_calls_per_iteration"] = (
        out.get("nc3d.solve_3d.residual3d_calls", 0) / iters if iters else 0.0)
    out["trace.spans"] = len(nid)
    return out, per_request


def environment(root):
    head = root / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).exists():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads_pinned": "1 (" + ", ".join(THREAD_VARS) + ")",
    }


def fingerprint(records, traced_counts):
    """Exact counts and a sha256 over round 0: the same seed must give the same line."""
    first = [r for r in records if r.round == 0]
    totals = {}
    for r in first:
        for k, v in list(r.counts.items()) + list(traced_counts.get(r.id, {}).items()):
            totals[k] = totals.get(k, 0) + v
    blob = json.dumps([r.key() + [traced_counts.get(r.id, {})] for r in first], sort_keys=True)
    return totals, sha(blob.encode())


def worst_devs(records):
    worst = {}
    for r in records:
        for k, v in r.devs.items():
            worst[k] = max(worst.get(k, 0.0), v)
    return worst


def measure_setup(root, cpu):
    """Normalized spawn-to-imported times of SETUP_PROBES fresh clients."""
    setups = []
    for _ in range(SETUP_PROBES):
        with Child(root, cpu) as probe:
            after_import = [d for _, d in probe.close()["refs"][:SETUP_REFS]]
            setups.append(probe.setup_s * REF_NOMINAL_S / statistics.median(after_import))
    return setups


def layer_metrics(plain, traced, trace_path):
    """Per-layer metrics of the traced phase, its per-request counters, and
    every way the traced phase disagrees with the untraced one or with the
    counts read from the outputs."""
    per_layer, traced_counts = span_metrics(trace_path)
    problems = []
    common = min(plain.rounds, traced.rounds)
    for a, b in zip(plain.records, traced.records):
        if a.round < common and a.key() != b.key():
            problems.append(f"request {a.id} ({a.label}) differs between two clients with one seed")
            break
    t_rate = end_to_end(traced)[0]["units_per_s"]
    per_layer["trace.units_per_s"] = t_rate
    per_layer["trace.overhead_ratio"] = end_to_end(plain)[0]["units_per_s"] / t_rate
    per_layer["cli.stdout_bytes"] = sum(r.stdout_bytes for r in traced.records)
    per_layer["cli.file_bytes"] = sum(r.file_bytes for r in traced.records)
    per_layer.update({f"check.{k}": v for k, v in worst_devs(traced.records).items()})
    expected = {}
    for r in traced.records:
        for k, v in r.counts.items():
            expected[k] = expected.get(k, 0) + v
    # exact counts seen inside the layers must equal those read from the outputs
    pairs = [(f"nc2d.branch.{kind}", f"solve2d.{kind}") for kind in BRANCHES
             if "nc2d.classify_singular" not in traced.absent]
    if "backend.rk4_trajectory" not in traced.absent:
        pairs.append(("backend.rk4_trajectory.steps", "steps"))
    for traced_key, output_key in pairs:
        if per_layer.get(traced_key, 0) != expected.get(output_key, 0):
            problems.append(f"{traced_key}: traced {per_layer.get(traced_key, 0)}"
                            f" != {expected.get(output_key, 0)} from the outputs")
    return per_layer, traced_counts, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ncphase" / "cli.py").is_file():
        print("perfbench: no src/ncphase/cli.py under the current directory; "
              "run from the root of an ncphase checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / WORK
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()

    cpus = sorted(os.sched_getaffinity(0))
    cpu = None
    if len(cpus) > 1:  # the client gets a CPU of its own
        cpu = cpus[-1]
        os.sched_setaffinity(0, cpus[:-1])
    workload = WORKLOADS[args.workload](args.seed)
    setups = measure_setup(root, cpu)
    plain = run_phase(root, workload, args.seconds, cpu)
    setups.append(plain.setup_s)
    e2e, tail = end_to_end(plain)
    e2e["setup_s"] = statistics.median(setups)
    phases = [plain]
    per_layer, traced_counts, problems = {}, {}, []
    if args.trace:
        trace_path = str(work / "spans.npz")
        phases.append(run_phase(root, WORKLOADS[args.workload](args.seed), args.seconds, cpu, trace_path))
        per_layer, traced_counts, problems = layer_metrics(plain, phases[1], trace_path)

    records = [r for p in phases for r in p.records]
    attempted = len(records)
    failed = sum(not r.ok for r in records)
    devs = worst_devs(records)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(environment(root)))
    for name, p in zip(("untraced", "traced"), phases):
        timed = [r for r in p.records if r.round >= 0]
        print(f"{name}: {p.rounds} rounds, {len(timed)} timed requests (+{len(p.records) - len(timed)} "
              f"warm-up) in {p.elapsed:.1f} s; CPU at {REF_NOMINAL_S / statistics.fmean(r.ref for r in timed):.2f}"
              f" of its best; raw wall: units_per_s {sum(r.units for r in timed) / sum(r.wall for r in timed):.6g},"
              f" latency_p50_s {statistics.median(r.wall for r in timed):.6g}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    extra = {
        "setup_s": f"median of {len(setups)} spawns",
        "units_per_s": f"{workload.unit}: verified work over normalized request time",
        "latency_tail_s": f"p{tail['tail_pct']:.1f} of {tail['n']} requests, {tail['beyond']} beyond",
    }
    for name in ("setup_s", "units_per_s", "latency_p50_s", "latency_tail_s", "peak_rss_mb"):
        print(f"  {name:<16} {e2e[name]:<14.6g} {units[name]:<8} {extra.get(name, '')}")
    print(f"  {'failed_ratio':<16} {failed / attempted:<14.6g} {'ratio':<8} {failed} of {attempted} requests")
    for k in sorted(devs):
        print(f"  check {k:<36} worst deviation {devs[k]:.3e}")
    totals, digest = fingerprint(phases[-1].records, traced_counts)
    print("round 0 exact counts: " + json.dumps(totals, sort_keys=True))
    print(f"round 0 fingerprint: {digest}")
    if args.trace:
        print("absent spans: " + (", ".join(phases[1].absent) or "none"))
        for m in spec["per_layer"]:
            print(f"  {m['name']:<44} {per_layer.get(m['name'], 0):<14.6g} {m['unit']}")
    for r in records:
        if not r.ok:
            print(f"FAILED request {r.id} ({r.label}, round {r.round}): {r.reason}")
    for p in problems:
        print(f"FAILED {p}")

    if args.trace:  # layers a workload never enters, or that no longer exist, read 0
        metrics = {m["name"]: {"value": per_layer.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
