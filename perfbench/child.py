"""One workload run in a fresh interpreter; writes its measurements as JSON.

Usage: child.py RESULT_JSON CONFIG [COMMAND OUTPUT_DIR [--trace]]

With only RESULT_JSON and CONFIG it measures set-up alone: ``import
spde_ergo`` plus ``cli.parse_config`` of the config. With a COMMAND it then
calls ``spde_ergo.cli.main`` the way ``spde-ergo COMMAND --config CONFIG
--output OUTPUT_DIR`` does and times that call. ``--trace`` wraps the
layers' seams first (see tracing.py).
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv):
    result_path, config_path = Path(argv[0]), argv[1]
    text = Path(config_path).read_text(encoding="utf-8")
    t0 = time.perf_counter()
    from spde_ergo import cli

    cli.parse_config(text)
    record = {"setup_s": time.perf_counter() - t0}
    if len(argv) > 2:
        command, out_dir = argv[2], argv[3]
        args = [command, "--config", config_path, "--output", out_dir]
        tracer = None
        if "--trace" in argv[4:]:
            from tracing import Tracer, instrumented, layer_metrics

            tracer = Tracer()
            with instrumented(tracer):
                t1 = time.perf_counter()
                rc = cli.main(args)
                wall = time.perf_counter() - t1
            record["layers"] = layer_metrics(tracer)
        else:
            t1 = time.perf_counter()
            rc = cli.main(args)
            wall = time.perf_counter() - t1
        record.update(
            rc=rc, wall_s=wall,
            # ru_maxrss is in KiB on Linux.
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            spde_ergo_file=sys.modules["spde_ergo"].__file__,
        )
    result_path.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
