"""One fresh shiftfem process: set up, optionally run ``shiftfem.cli.main``, report.

Usage: ``python3 perfbench/child.py JOB.json``. The job names the ``src``
directory to import shiftfem from, the CLI ``argv``, whether to run after
set-up, whether to trace, and where to write the result JSON. The result
holds the monotonic clock reading at which the program was ready to run
(the parent subtracts its own reading taken just before starting this
process, which gives set-up time), the time spent in ``cli.main``, its exit
code, the process's peak resident memory and, when traced, the spans.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])
    import numpy
    import scipy
    from shiftfem import cli, spaces

    cli.config_from_args(cli.build_parser().parse_args(job["argv"]))
    result = {"ready": time.perf_counter(),
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if job["run"]:
        tracer = None
        if job["trace"]:
            import tracing
            tracer = tracing.install(cli, spaces)
        t0 = time.perf_counter()
        result["rc"] = cli.main(job["argv"])
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            result["spans"] = tracer.spans
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
