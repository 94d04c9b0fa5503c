"""Closed-loop client: one fresh interpreter that drives ``ncphase.cli.run``.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports ``ncphase.cli``, prints one ``{"ready": ...}`` line
and then reads one JSON request per line from stdin.  Each request runs
``cli.run(argv)`` with stdout and stderr redirected to the files the
request names, and the client answers with the exit code and the wall
time of that call before it reads the next request.  A ``{"quit": true}``
line ends the loop; the answer to it carries the peak resident memory
and, with ``--trace PATH``, the number of spans written to PATH.

Every ``REF_EVERY_S`` a timer signal makes the client time a fixed
reference workload (``ref_sample``) on its own CPU, inside requests and
between them.  The reported request time leaves out the reference runs
that fell inside it; ``run.py`` then scales it by the reference times
measured around it (see ``REF_NOMINAL_S`` there), because the virtual
CPUs this benchmark was built on run 1.1 to 1.9 times slower than their
best for tens of seconds at a time.

Protocol lines go to the stdout the client was started with, never to
the redirected one, so the program's output cannot corrupt them.
"""
import contextlib
import gc
import json
import os
import resource
import signal
import sys
import time
import traceback

REF_EVERY_S = 0.05
SETUP_REFS = 5


def ref_sample():
    """[start, duration] of a fixed piece of work shaped like the CLI's own:
    float repr and joins, a JSON round trip, and small numpy products."""
    import numpy as np  # loaded by ncphase already; not part of the timed import

    t0 = time.perf_counter()
    xs = [i * 0.37 for i in range(1500)]
    ",".join(map(repr, xs))
    json.loads(json.dumps({str(i): [xs[i], "a"] for i in range(0, 1500, 3)}, sort_keys=True))
    a, z = np.eye(4) * 0.5, np.ones(4)
    for _ in range(150):
        z = a @ z + 0.5 * z
    return [t0, time.perf_counter() - t0]


def main():
    argv = sys.argv[1:]
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    if "--cpu" in argv:
        os.sched_setaffinity(0, {int(argv[argv.index("--cpu") + 1])})
    from ncphase import cli

    # One client serves many requests; a real CLI call is a fresh process
    # whose import-time objects are hardly ever scanned by a full
    # collection.  Freezing them keeps full collections as cheap here.
    gc.freeze()
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    proto = sys.stdout

    def send(doc):
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    send({"ready": True, "absent": tracer.absent if tracer else []})
    ref_sample()  # the first call pays one-time costs
    refs = [ref_sample() for _ in range(SETUP_REFS)]  # the CPU's speed right after the import

    def on_alarm(signum, frame):
        refs.append(ref_sample())
        if tracer:  # a child span, so it is not charged to the function it interrupted
            tracer.record("perfbench.ref", *refs[-1])

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("quit"):
            break
        if tracer:
            tracer.request = msg["id"]
        error = None
        with open(msg["stdout"], "w") as out, open(msg["stderr"], "w") as err:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(msg["argv"])
                    out.flush()
            except SystemExit as exc:  # argparse rejects argv with SystemExit(2)
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed request, not a dead client
                code = None
                error = traceback.format_exc()
            t1 = time.perf_counter()
        inside = sum(d for start, d in refs if t0 <= start < t1)
        send({"id": msg["id"], "exit": code, "start": t0, "end": t1, "wall": t1 - t0 - inside,
              "error": error, "refs": refs})
        refs = []
    signal.setitimer(signal.ITIMER_REAL, 0, 0)

    spans = tracer.dump(trace_path) if tracer else 0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    send({"rss_kb": rss_kb, "spans": spans, "refs": refs})


if __name__ == "__main__":
    main()
