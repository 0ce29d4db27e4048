#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload prep-sf003 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 1

Builds the benchmark binary and cqad from source into .bench_build/, generates and
caches each fixture there (outside every timed region), runs the C++
binary, checks the input fingerprint against perfbench/fixtures.json and
the metric names against BENCHMARK.json, and prints every metric by name
with its unit. The last line of standard output is the result object;
the exit code is non-zero on any fingerprint or correctness failure.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
CQAD = os.path.join(BUILD, "cqabench", "serve", "cqad")
WORKLOADS = ("prep-sf003", "sample-sf001", "serve-mix")
# The same pipeline at SF 0.1: one run takes 40-60 s, too long
# and too drift-prone for the ten-seed checks, so it is run by hand.
MANUAL = ("prep-sf01",)

# Per-layer metrics that only a served workload produces, and those only
# the in-process pipeline produces. A traced run reports the other
# workloads' layers as 0: that layer did no work there.
SERVE_ONLY = ("serve.", "loadgen.", "light_ms.", "heavy_ms.", "miss_ms.",
              "layer.serve.")
OFFLINE_ONLY = ("query.", "cqa.", "common.", "storage.block_index_s",
                "layer.query.", "layer.cqa.", "layer.common.")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def applies(workload, metric):
    if metric.startswith(SERVE_ONLY):
        return workload == "serve-mix"
    if metric.startswith(OFFLINE_ONLY):
        return workload != "serve-mix"
    return True


def build():
    """Configures once and builds perfbench and cqad (a no-op when fresh)."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench", "cqad"], check=True, stdout=sys.stderr)


def fixture_dir(name, spec):
    """Returns the cached fixture directory, generating it if needed."""
    path = os.path.join(BUILD, "fixtures", name)
    stamp = os.path.join(path, "spec.json")
    wanted = {k: spec[k] for k in ("sf", "seed", "noise_query", "p")}
    if os.path.exists(stamp) and load_json(stamp) == wanted:
        return path
    shutil.rmtree(path, ignore_errors=True)
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    log(f"perfbench: generating fixture {name}")
    subprocess.run([BINARY, "fixture", f"--sf={spec['sf']}",
                    f"--seed={spec['seed']}",
                    f"--noise_query={spec['noise_query']}",
                    f"--p={spec['p']}", f"--out={tmp}"],
                   check=True, stdout=sys.stderr)
    with open(os.path.join(tmp, "spec.json"), "w") as f:
        json.dump(wanted, f)
    os.rename(tmp, path)
    return path


def run_binary(workload, data, seed, seconds, trace, settings):
    """Runs the C++ binary; returns its parsed result object or None."""
    cmd = [BINARY, "run", f"--workload={workload}", f"--data={data}",
           f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}",
           f"--cqad={CQAD}"]
    for flag in settings.get("cqad_flags", []):
        cmd.append(f"--cqad_flag={flag}")
    for key in ("open_rate", "open_requests", "batch"):
        if key in settings:
            cmd.append(f"--{key}={settings[key]}")
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append(f"--trace_out={traces}/{workload}-{seed}.jsonl")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: binary exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def provenance():
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    sha = ""
    if shutil.which("git"):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    except OSError:
        pass
    compiler = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                               "--version"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    return {
        "git_sha": sha.strip() or "unknown",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": (compiler.stdout.splitlines() or [""])[0],
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "no_obs": cache.get("CQABENCH_NO_OBS", "OFF"),
        "python": platform.python_version(),
    }


def check(workload, trace, out, expected, bench):
    """Fingerprint and metric-name checks; returns a list of problems."""
    problems = []
    got = out.get("fingerprint", {})
    for key in sorted(set(expected) | set(got)):
        if str(expected.get(key)) != got.get(key):
            problems.append(f"fingerprint {key}: expected {expected.get(key)},"
                            f" got {got.get(key)}")
    declared = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = out["metrics"]
    for name, unit in units.items():
        if name in metrics:
            if metrics[name]["unit"] != unit:
                problems.append(f"metric {name} has unit "
                                f"{metrics[name]['unit']}, not {unit}")
        elif trace and not applies(workload, name):
            metrics[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"metric {name} not reported")
    for name in set(metrics) - set(units):
        problems.append(f"metric {name} is not declared in BENCHMARK.json")
    return problems


def run_workload(workload, seed, seconds, trace, config, bench):
    settings = config["workloads"][workload]
    fixture = config["fixtures"][settings["fixture"]]
    data = fixture_dir(settings["fixture"], fixture)
    out = run_binary(workload, data, seed, seconds, trace, settings)
    if out is None:
        return None
    expected = dict(fixture["fingerprint"])
    expected.update(settings["queries"])
    problems = check(workload, trace, out, expected, bench)
    for p in out.get("errors", []) + problems:
        log(f"perfbench: {workload}: {p}")
    result = {
        "correct": bool(out["correct"]) and not problems,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {k: out["metrics"][k] for k in sorted(out["metrics"])},
    }
    for name, m in result["metrics"].items():
        log(f"{workload:14s} {name:38s} {m['value']:>16.6g} {m['unit']}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + MANUAL + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        config = load_json(os.path.join(HERE, "fixtures.json"))
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        build()
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        log(f"perfbench: cannot set up: {e}")
        return 1
    log("perfbench: provenance " + json.dumps(provenance()))

    ok = True
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds,
                                  args.trace, config, bench)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError, ValueError, KeyError) as e:
            log(f"perfbench: {workload}: {e}")
            result = None
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
