#!/usr/bin/env python3
"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py      (from the repository root)

For every workload it checks that
  * an end-to-end run prints every `end_to_end` metric of BENCHMARK.json,
    and a traced run every `per_layer` metric, each with its unit and
    nothing else, in a result line with exactly the keys correct,
    attempted, failed and metrics, and that both runs are correct;
  * each correctness check the workload makes can fail: the run is repeated
    once per check with that check's expected value made wrong
    (`--break CHECK`), and must then report failed > 0 and correct false.
Exits 0 when everything holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)

WORKLOADS = run.WORKLOADS


def invoke(binary, workload, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--toy", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}: {p.stderr}")
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    checks = next(l for l in lines if l.startswith("checks: "))
    names = [c for c in checks[len("checks: "):].split(",") if c]
    return json.loads(lines[-1]), names


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build(os.getcwd())
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for w in WORKLOADS:
        all_checks = set()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, names = invoke(binary, w, trace)
            all_checks.update(names)
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   f"{w} trace={trace}: result keys")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == want, f"{w} trace={trace}: every {key} metric "
                                f"printed with its unit")
            expect(all(isinstance(v.get("value"), (int, float))
                       for v in result["metrics"].values()),
                   f"{w} trace={trace}: metric values are numbers")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{w} trace={trace}: correct, failed_ratio 0")
        for check in sorted(all_checks):
            result, _ = invoke(binary, w, 1, ("--break", check))
            ratio = result["failed"] / result["attempted"]
            expect(ratio > 0 and not result["correct"],
                   f"{w}: wrong expected value for '{check}' gives "
                   f"failed_ratio {ratio:.3f} > 0")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
