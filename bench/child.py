"""One repetition of a workload, run by bench/run.py in a fresh interpreter.

    python3 bench/child.py '<json spec>'

The spec names the CLI arguments (null for a set-up probe that only
imports), the output directory, whether to trace, and the file the
result goes to.  Nothing but the standard library is imported before
`noma_pep.cli`, so the import time is the program's own set-up.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    import noma_pep
    import noma_pep.cli as cli
    imported = time.clock_gettime(time.CLOCK_MONOTONIC)

    src = Path(spec["src"]).resolve()
    if src not in Path(noma_pep.__file__).resolve().parents:
        print(f"noma_pep was imported from {noma_pep.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"imported": imported, "import_s": imported - started}
    if spec["argv"] is not None:
        out = Path(spec["out"])
        tracer = None
        if spec["trace"]:
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        begin = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            rc = cli.main(spec["argv"] + ["--out", str(out)])
        finally:
            end = time.clock_gettime(time.CLOCK_MONOTONIC)
            if tracer is not None:
                tracer.restore()
        result.update(rc=rc, wall_s=end - begin)
        if tracer is not None:
            layers = layer_metrics(tracer)
            layers["cli.csv_bytes"] = sum(
                p.stat().st_size for p in out.glob("*.csv"))
            result.update(layers=layers, absent=tracer.absent)
            (out / "spans.json").write_text(json.dumps(tracer.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
