"""Fresh-process side of the benchmark.

    python bench/worker.py setup
        Time a fresh worker from its first lamit import until the shipped
        inventory and lexicon are loaded; print the timings as JSON.
    python bench/worker.py cli SPANS_PATH ARG...
        Run `lamit ARG...` in this process with spans recorded, write them
        to SPANS_PATH and exit with the command's exit code.
    python bench/worker.py reference
        Print the median seconds of five runs of pace.reference_task().

`setup` and `cli` expect lamit on PYTHONPATH (run.py sets PYTHONPATH=src).
"""
import json
import sys
import time


def setup():
    t0 = time.perf_counter()
    import lamit.cli  # noqa: F401  (the import is what is timed)
    from lamit import features, lexicon
    t1 = time.perf_counter()
    inv = features.load_italian()
    t2 = time.perf_counter()
    lexicon.load_lamit_lexicon(inv)
    t3 = time.perf_counter()
    print(json.dumps({'setup_s': t3 - t0, 'import_s': t1 - t0,
                      'inventory_ms': (t2 - t1) * 1e3,
                      'lexicon_ms': (t3 - t2) * 1e3}))


def cli(spans_path, argv):
    t0 = time.perf_counter()
    import lamit.cli
    import_s = time.perf_counter() - t0
    from spans import Recorder
    rec = Recorder()
    rec.install()
    sid = rec.open('request')
    code = lamit.cli.main(argv)
    rec.close(sid)
    with open(spans_path, 'w', encoding='utf-8') as f:
        json.dump({'import_s': import_s, 'spans': rec.spans}, f)
    return code


def reference():
    from pace import reference_task
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - t0)
    print(sorted(times)[2])


if __name__ == '__main__':
    if sys.argv[1:2] == ['setup']:
        setup()
    elif sys.argv[1:2] == ['reference']:
        reference()
    elif sys.argv[1:2] == ['cli'] and len(sys.argv) > 3:
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(__doc__)
