"""Write bench/reference/synthetic.json: exact values of every synthetic op.

    python3 bench/make_reference.py 0 1 2 ...

For each seed it runs one synthetic pass and records, per op, the exact
app, predegree polynomial, orbit dimension and degree.  The benchmark
compares every later run of a recorded seed against these values.  Run
it only when the expected values change on purpose.
"""

import json
import sys

import worker
import workloads


def main(seeds: list[int]) -> None:
    table = json.loads(worker.REFERENCE.read_text()) if worker.REFERENCE.is_file() else {}
    for seed in seeds:
        ops, _, _ = worker.synthetic_ops(seed)
        table[str(seed)] = [workloads.report_values(json.loads(op.run())) for op in ops]
    worker.REFERENCE.parent.mkdir(exist_ok=True)
    text = json.dumps(dict(sorted(table.items(), key=lambda kv: int(kv[0]))), separators=(",", ":"))
    worker.REFERENCE.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]])
