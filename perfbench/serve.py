"""``repro serve`` in its own process, with benchmark-owned spans on demand.

Usage: ``python3 perfbench/serve.py [repro serve arguments...]``

Runs ``repro.cli.main(["serve", ...])`` unchanged.  A control thread
reads one command per stdin line and answers each with one stdout line
starting with ``perfbench `` followed by JSON:

* ``trace-on``  — reset and install the layer spans of ``spans.py``;
* ``trace-off`` — remove them;
* ``snap``      — the per-layer span metrics so far and this process's
  peak RSS.
"""

import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.cli import main  # noqa: E402


def control() -> None:
    tracer = None
    for line in sys.stdin:
        # Imported on the first command, off the start-up path that
        # ``setup_s`` times.
        import json

        import common
        import spans

        if tracer is None:
            tracer = spans.Tracer()
        command = line.strip()
        if command == "trace-on":
            tracer.reset()
            tracer.install()
            reply = {"ok": True}
        elif command == "trace-off":
            tracer.uninstall()
            reply = {"ok": True}
        elif command == "snap":
            reply = {
                "layers": spans.layer_metrics(tracer.snapshot()),
                "rss_mb": common.vm_hwm_mb(),
            }
        else:
            reply = {"error": f"unknown command {command!r}"}
        sys.stdout.write("perfbench " + json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    threading.Thread(target=control, name="perfbench-control", daemon=True).start()
    sys.exit(main(["serve", *sys.argv[1:]]))
