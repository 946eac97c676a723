"""Traced stand-in for `python -m zpcount.cli ARGS`, used by extremal_cli's traced passes.

Runs the same command with the tracer installed and, after the command's own
output, writes one line `PERFBENCH_TRACE <json snapshot>` to stderr.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import zpcount.cli  # noqa: E402  (PYTHONPATH names the checkout's src)

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
code = zpcount.cli.main(sys.argv[1:])
sys.stdout.flush()
print("PERFBENCH_TRACE " + json.dumps(tracer.snapshot()), file=sys.stderr)
sys.exit(code)
