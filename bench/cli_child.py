"""A cold `orbitdeg` CLI process with the layer spans recorded.

Used by the traced half of a cli-cold run in place of
`python -m orbitdeg.cli`: it installs the tracer, runs `orbitdeg.cli.main`
with the given arguments, and writes the per-span totals as one
`BENCH-SPANS {json}` line to stderr.
"""

import json
import sys

from tracer import CLI_TARGETS, LAYER_TARGETS, Tracer

import orbitdeg.cli

tracer = Tracer()
tracer.install(LAYER_TARGETS + CLI_TARGETS)
try:
    code = orbitdeg.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    tracer.fold()
    print("BENCH-SPANS " + json.dumps(tracer.totals), file=sys.stderr)
sys.exit(code)
