"""Quick self-check of the benchmark at a tiny size.

    python3 perfbench/selfcheck.py

Checks, in a few seconds, that:
  * BENCHMARK.json keeps the shape the benchmark's runner expects;
  * every workload, run untraced, reports each end-to-end metric exactly
    once with its declared unit, and every job passes its checks;
  * every workload, run traced, reports each per-layer metric exactly
    once with its declared unit;
  * a wrapped function that l1lab no longer has is reported as absent
    instead of crashing the traced run, and the tracer leaves every
    module as it found it.
Exit status 0 when all hold, 1 otherwise.
"""

import json
import re
import shutil
import sys
import tempfile

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Wrap-table entries for things l1lab does not have, as after a change
# that deletes gd_step, ccd_sweep and ccm_sweep: the traced run must report
# them absent and carry on.
MISSING = (
    ("solvers.removed", "solvers", "removed_function", None),
    ("solvers.Trace.removed", "solvers.Trace", "removed_method", None),
    ("removed.f", "removed_module", "f", None),
)


def check_spec(spec):
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys are {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.match(n) or names.count(n) > 1]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"bad unit or direction on {m['name']}")
    for m in spec["end_to_end"]:
        if not 0.0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} is outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) is missing")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should have the largest bound")
    import workloads

    unknown = set(w["name"] for w in spec["workloads"]) - set(workloads.WORKLOADS)
    problems += [f"workload {w} is not defined" for w in sorted(unknown)]
    return problems


def check_output(label, result, lines, declared):
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: failed {result['failed']} of {result['attempted']}")
    got = result["metrics"]
    for m in declared:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"{label}: {m['name']} missing")
        elif entry["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} in {entry['unit']}, declared {m['unit']}")
        printed = [ln for ln in lines if ln.startswith(m["name"] + " = ")]
        if len(printed) != 1 or not printed[0].endswith(" " + m["unit"]):
            problems.append(f"{label}: {m['name']} printed {len(printed)} times or without unit")
    extra = set(got) - {m["name"] for m in declared}
    problems += [f"{label}: undeclared metric {n}" for n in sorted(extra)]
    json.dumps(result, allow_nan=False)
    return problems


def check_absent(workdir):
    """Trace a run with wrap-table entries that point at nothing."""
    import tracer

    wraps = tracer.WRAPS
    tracer.WRAPS = wraps + MISSING
    try:
        result, lines = run.measure("verify_small", 0, 0.01, 1, workdir, tiny=True)
    finally:
        tracer.WRAPS = wraps
    note = next((ln for ln in lines if "absent" in ln), "")
    problems = [f"{owner}.{attr} not reported absent"
                for _, owner, attr, _ in MISSING if f"{owner}.{attr}" not in note]
    if not result["correct"]:
        problems.append("traced run failed with missing wrap targets")
    return problems


def check_restored():
    import importlib

    from tracer import LAYERS

    problems = []
    for layer in LAYERS:
        module = importlib.import_module(f"l1lab.{layer}")
        owners = [(f"l1lab.{layer}", module)] + [
            (f"l1lab.{layer}.{name}", value) for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for label, owner in owners:
            problems += [f"{label}.{name} is still wrapped"
                         for name, value in vars(owner).items()
                         if "Tracer._wrapper" in getattr(value, "__qualname__", "")]
    return problems


def main():
    run._import_l1lab()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_spec(spec)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for w in spec["workloads"]:
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                result, lines = run.measure(w["name"], 0, 0.01, trace, workdir, tiny=True)
                problems += check_output(f"{w['name']} trace={trace}", result, lines, declared)
        problems += check_absent(workdir)
        problems += check_restored()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("self-check:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
