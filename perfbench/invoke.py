"""One fresh CLI invocation, timed from inside its own interpreter.

    python3 perfbench/invoke.py --report FILE [--trace WORKLOAD] -- <cli args>

Times `import tubeaxis.cli` (set-up) and `tubeaxis.cli.main(<cli args>)`
(the pipeline), then writes those times, the process's peak RSS and, with
--trace, the per-layer span table to FILE as JSON. The process exits with
the CLI's exit code, so the caller gates on exactly what a user sees.
--trace names the workload whose expected spans (spans.EXPECTED) must fire.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import tubeaxis.cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace is not None:
        import spans  # from this script's directory
        tracer = spans.Tracer(rss_mb)
        tracer.install()

    t1, c1 = time.perf_counter(), time.process_time()
    code = tubeaxis.cli.main(cli_args)
    pipeline_s = time.perf_counter() - t1
    cpu_s = time.process_time() - c1

    report = {"exit_code": code, "setup_s": setup_s, "pipeline_s": pipeline_s,
              "cpu_s": cpu_s, "peak_rss_mb": rss_mb()}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["missing_spans"] = tracer.missing(args.trace) if code == 0 else []
    Path(args.report).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
