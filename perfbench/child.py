"""One graphinv CLI invocation in a fresh interpreter, timed from inside.

    python3 perfbench/child.py MODE REGIME -- CLI-ARGS...

MODE is ``setup`` (import and build the catalog, then stop), ``plain``
(also run ``graphinv.cli.main`` on CLI-ARGS) or ``trace`` (run it with the
layer timers of ``tracer.py`` installed). REGIME names the catalog the
command builds, or ``none``. The last line of standard output is one JSON
object with the timings; the command's own output is captured into it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    mode, regime, sep, *argv = sys.argv[1:]
    if mode not in ("setup", "plain", "trace") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 1
    start = time.perf_counter()
    import graphinv.cli as cli
    if regime != "none":
        from graphinv.registry import RegimeConfig, build_catalog
        build_catalog(RegimeConfig(regime=regime))
    result: dict = {"setup_s": time.perf_counter() - start}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            result["rc"] = cli.main(argv)
        result["wall_s"] = time.perf_counter() - start
        result["stdout"] = captured.getvalue()
        if tracer is not None:
            result["layers"] = tracer.summary(result["wall_s"])

    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = peak_kib / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
