#!/usr/bin/env python3
"""Project-specific source lints for the cqabench tree.

Fast, dependency-free checks that encode conventions the compiler cannot:

  1. RNG discipline: all randomness flows through src/common/rng.*.  Raw
     rand()/srand()/drand48()/std::random_device/std::mt19937 anywhere else
     makes benchmark runs unreproducible.  So do #include <random> and any
     std::..._distribution: a standard distribution's output is
     implementation-defined, so a draw through one would differ between
     standard libraries at the same seed.  (rng.* itself includes neither:
     its Mersenne Twister is in-repo.)
  2. Obs-macro discipline: CQA_OBS_COUNT/COUNT_N/OBSERVE take a *literal*
     lowercase dotted metric name ("phase.metric_name").  Computed names
     defeat the function-local pointer cache in obs/metrics.h and would
     register a new metric per distinct string at runtime.
  3. Test coverage by reference: every library .cc under src/ must be
     reachable from the test suite -- either a tests/<stem>_test.cc exists
     or some test includes the corresponding header.
  4. Include-guard convention: headers use CQABENCH_<PATH>_H_ where <PATH>
     is the include path (src/ stripped) upper-cased, and the guard's
     #ifndef/#define pair matches.
  5. Bench JSON discipline: every bench/bench_*.cc supports the
     machine-readable --bench_json= flag (via bench/bench_flags.h or a
     hand-rolled parser), so the continuous-benchmarking pipeline can
     collect BENCH_*.json from any benchmark binary.
  6. Batch-draw discipline: every Sampler subclass overrides DrawBatch
     (the estimator loops draw in blocks; a subclass that forgets the
     override silently falls back to per-draw virtual dispatch) unless it
     is in the explicit opt-out set of test-only stub samplers.
  7. Documentation discipline: (a) every public header under src/cqa and
     src/serve opens with a file-level // comment (before the include
     guard) saying what the module is; (b) every command-line flag
     registered by the bench harness (bench/bench_flags.h), the CLI
     (examples/cqa_cli.cpp), or the serving binaries (serve/cqad.cc,
     serve/cqa_client.cc) is mentioned as --flag somewhere in README.md
     or docs/, so the flag tables cannot silently drift from the code.
  8. Metric catalog discipline: every metric name registered from
     non-test source -- CQA_OBS_COUNT/COUNT_N/OBSERVE literals and
     Registry GetGauge("...") literals -- must appear in docs/metrics.md,
     so the metric catalog cannot silently drift from the code.
  9. Concurrency discipline: non-test source synchronizes only through
     the annotated cqa::Mutex/MutexLock/CondVar wrappers
     (src/common/thread_annotations.h) so Clang Thread Safety Analysis
     sees every lock; raw std::mutex/std::condition_variable/
     std::lock_guard/std::unique_lock use outside that header is
     rejected.  Naked std::thread construction is confined to the pool
     (src/common/thread_pool.cc), the daemon's event loops, executor
     host and drainer (src/serve/server.cc), the profiler's aggregator
     and the resource sampler.  cqad's HTTP endpoints and its signal
     check run on event loop 0, so no request gets a thread.
 10. Event-demultiplexing discipline: raw epoll_*/poll/ppoll calls are
     confined to src/serve/reactor.* (the event-loop single owner).
     Everyone else goes through reactor's EventLoop (handlers, Post,
     RunAfter timers) so fd readiness has one implementation to audit
     for edge-trigger and EINTR handling.
 11. Shared block index: non-test source (src/, bench/, examples/,
     serve/) outside src/storage/ never calls BlockIndex::Build( -- it
     reads the database's one lazily built index through
     Database::block_index(), so no library path rebuilds or copies the
     whole-database index per query.  Tests may build private indexes.

Exit status is 0 iff the tree is clean.  Run from anywhere:
    python3 tools/lint.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC_DIRS = ["src", "bench", "tests", "examples", "serve"]
CXX_SUFFIXES = {".cc", ".cpp", ".h"}

# ---------------------------------------------------------------------------
# Check 1: randomness goes through src/common/rng.* only.
# ---------------------------------------------------------------------------

RNG_PATTERN = re.compile(
    r"std::random_device|std::mt19937|\bdrand48\b|\bsrand\s*\(|"
    r"(?<![\w:])rand\s*\(\s*\)|std::\w+_distribution\b|"
    r"#\s*include\s*<random>"
)
RNG_ALLOWED = {"src/common/rng.h", "src/common/rng.cc"}


def check_rng(path: Path, rel: str, text: str, errors: list[str]) -> None:
    if rel in RNG_ALLOWED:
        return
    for lineno, line in enumerate(text.splitlines(), 1):
        code = strip_comments(line)
        if RNG_PATTERN.search(code):
            errors.append(
                f"{rel}:{lineno}: raw RNG primitive; use cqa::Rng "
                f"(src/common/rng.h) so runs stay seed-reproducible"
            )


# ---------------------------------------------------------------------------
# Check 2: obs macros take literal dotted metric names.
# ---------------------------------------------------------------------------

OBS_CALL = re.compile(r"\bCQA_OBS_(COUNT_N|COUNT|OBSERVE)\s*\(\s*([^,)]*)")
METRIC_NAME = re.compile(r'^"[a-z0-9_]+(\.[a-z0-9_]+)+"$')


def check_obs_macros(path: Path, rel: str, text: str, errors: list[str]) -> None:
    if rel in ("src/obs/metrics.h", "src/obs/metrics.cc"):
        return  # The macro definitions themselves; other obs sources
        # (profiler, resource) are call sites like everyone else.
    # Strip comments but keep newlines so offsets map back to line numbers;
    # calls may wrap, so match across lines.
    stripped = "\n".join(strip_comments(line) for line in text.splitlines())
    for match in OBS_CALL.finditer(stripped):
        arg = match.group(2).strip()
        lineno = stripped.count("\n", 0, match.start()) + 1
        if not METRIC_NAME.match(arg):
            errors.append(
                f"{rel}:{lineno}: CQA_OBS_{match.group(1)} name {arg!r} "
                f'must be a literal lowercase dotted string like '
                f'"phase.metric_name"'
            )


# ---------------------------------------------------------------------------
# Check 3: every library .cc is referenced from the test suite.
# ---------------------------------------------------------------------------

# Files whose behaviour is exercised through a different module's tests.
TEST_REF_ALLOWED = {
    # Relation is the storage primitive under Database; database_test.cc and
    # block_index_test.cc drive every Relation member through that API.
    "src/storage/relation.cc",
}


def check_test_references(errors: list[str]) -> None:
    tests_dir = REPO / "tests"
    test_text = "\n".join(
        p.read_text(encoding="utf-8", errors="replace")
        for p in sorted(tests_dir.glob("*.cc"))
    )
    test_stems = {p.stem for p in tests_dir.glob("*_test.cc")}
    for cc in sorted((REPO / "src").rglob("*.cc")):
        rel = cc.relative_to(REPO).as_posix()
        if rel in TEST_REF_ALLOWED:
            continue
        stem = cc.stem
        header = cc.relative_to(REPO / "src").with_suffix(".h").as_posix()
        if f"{stem}_test" in test_stems:
            continue
        if f'"{header}"' in test_text:
            continue
        errors.append(
            f"{rel}: no test reference (expected tests/{stem}_test.cc or a "
            f'test that includes "{header}")'
        )


# ---------------------------------------------------------------------------
# Check 4: include-guard convention.
# ---------------------------------------------------------------------------

GUARD_IFNDEF = re.compile(r"^\s*#ifndef\s+(\w+)", re.MULTILINE)


def expected_guard(rel: str) -> str:
    path = rel[len("src/"):] if rel.startswith("src/") else rel
    token = re.sub(r"[^A-Za-z0-9]", "_", path)
    return f"CQABENCH_{token.upper()}_"


def check_include_guard(path: Path, rel: str, text: str, errors: list[str]) -> None:
    if path.suffix != ".h":
        return
    want = expected_guard(rel)
    match = GUARD_IFNDEF.search(text)
    if not match:
        errors.append(f"{rel}: missing include guard (expected {want})")
        return
    got = match.group(1)
    if got != want:
        errors.append(f"{rel}: include guard {got} should be {want}")
        return
    if f"#define {want}" not in text:
        errors.append(f"{rel}: #ifndef {want} without matching #define")


# ---------------------------------------------------------------------------
# Check 5: every bench binary registers --bench_json.
# ---------------------------------------------------------------------------

def check_bench_json_flag(errors: list[str]) -> None:
    for cc in sorted((REPO / "bench").glob("bench_*.cc")):
        rel = cc.relative_to(REPO).as_posix()
        text = cc.read_text(encoding="utf-8", errors="replace")
        if '#include "bench/bench_flags.h"' in text or "--bench_json" in text:
            continue
        errors.append(
            f"{rel}: no --bench_json support (include bench/bench_flags.h "
            f"or parse --bench_json= directly) -- every bench binary must "
            f"emit machine-readable BENCH_*.json"
        )


# ---------------------------------------------------------------------------
# Check 6: Sampler subclasses override DrawBatch (or opt out explicitly).
# ---------------------------------------------------------------------------

SAMPLER_DECL = re.compile(r"class\s+(\w+)\s*(?:final\s*)?:\s*public\s+Sampler\b")

# Test-only stubs whose draws are trivially cheap: the default per-draw
# loop is fine and an override would be noise. Production samplers in src/
# must never be listed here.
DRAWBATCH_OPT_OUT = {"BernoulliSampler", "ConstantSampler"}


def check_drawbatch_overrides(path: Path, rel: str, text: str,
                              errors: list[str]) -> None:
    for match in SAMPLER_DECL.finditer(text):
        name = match.group(1)
        if name in DRAWBATCH_OPT_OUT:
            continue
        lineno = text.count("\n", 0, match.start()) + 1
        # The class body ends at the first non-indented closing brace.
        end = text.find("\n};", match.end())
        body = text[match.end(): end if end >= 0 else len(text)]
        if "DrawBatch" not in body:
            errors.append(
                f"{rel}:{lineno}: sampler {name} does not override DrawBatch "
                f"-- the estimator loops draw in blocks, so it would fall "
                f"back to per-draw virtual dispatch; override it or add the "
                f"class to DRAWBATCH_OPT_OUT in tools/lint.py"
            )


# ---------------------------------------------------------------------------
# Check 7: documentation discipline -- header file comments + flag docs.
# ---------------------------------------------------------------------------

# Directories whose public headers must open with a file-level comment.
DOC_HEADER_DIRS = ("src/cqa/", "src/serve/", "src/storage/")

# Flag-registering sources and how to extract their flag names.
FLAG_VALIDATE_SOURCES = [
    "examples/cqa_cli.cpp",
    "serve/cqad.cc",
    "serve/cqa_client.cc",
]
FLAG_LITERAL_SOURCES = ["bench/bench_flags.h", "bench/bench_micro.cc"]
VALIDATE_KEYS = re.compile(r"ValidateKeys\s*\(\s*\{([^}]*)\}", re.DOTALL)
QUOTED_NAME = re.compile(r'"([A-Za-z0-9_]+)"')
LITERAL_FLAG = re.compile(r'"--([A-Za-z0-9_]+)[="]')
# Internal toggles that every CLI accepts but no table documents.
FLAG_DOC_OPT_OUT = {"help"}


def check_header_file_comment(path: Path, rel: str, text: str,
                              errors: list[str]) -> None:
    if path.suffix != ".h" or not rel.startswith(DOC_HEADER_DIRS):
        return
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.startswith("//"):
            errors.append(
                f"{rel}:1: public header has no file-level comment -- open "
                f"with a // block describing the module before the include "
                f"guard"
            )
        return


def documented_flag_text() -> str:
    parts = []
    for name in ["README.md", "DESIGN.md", "EXPERIMENTS.md"]:
        p = REPO / name
        if p.is_file():
            parts.append(p.read_text(encoding="utf-8", errors="replace"))
    docs = REPO / "docs"
    if docs.is_dir():
        for p in sorted(docs.rglob("*.md")):
            parts.append(p.read_text(encoding="utf-8", errors="replace"))
    return "\n".join(parts)


def check_flag_docs(errors: list[str]) -> None:
    docs = documented_flag_text()
    for rel in FLAG_VALIDATE_SOURCES + FLAG_LITERAL_SOURCES:
        path = REPO / rel
        if not path.is_file():
            errors.append(f"{rel}: flag source listed in tools/lint.py "
                          f"does not exist")
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        flags: set[str] = set()
        if rel in FLAG_VALIDATE_SOURCES:
            for match in VALIDATE_KEYS.finditer(text):
                flags.update(QUOTED_NAME.findall(match.group(1)))
        else:
            flags.update(LITERAL_FLAG.findall(text))
        for flag in sorted(flags - FLAG_DOC_OPT_OUT):
            if f"--{flag}" not in docs:
                errors.append(
                    f"{rel}: flag --{flag} is not documented -- mention it "
                    f"in README.md or docs/ (the flag tables must cover "
                    f"every registered flag)"
                )


# ---------------------------------------------------------------------------
# Check 8: every exported metric name is cataloged in docs/metrics.md.
# ---------------------------------------------------------------------------

GAUGE_CALL = re.compile(r'GetGauge\s*\(\s*"([a-z0-9_.]+)"')


def check_metric_docs(errors: list[str]) -> None:
    catalog_path = REPO / "docs" / "metrics.md"
    catalog = (catalog_path.read_text(encoding="utf-8", errors="replace")
               if catalog_path.is_file() else "")
    seen: dict[str, str] = {}  # metric name -> first declaring site.
    for d in ["src", "bench", "examples", "serve"]:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in CXX_SUFFIXES:
                continue
            rel = path.relative_to(REPO).as_posix()
            if rel in ("src/obs/metrics.h", "src/obs/metrics.cc"):
                continue  # The macro/registry definitions themselves; other
                # obs sources (profiler, resource) register real metrics
                # and must catalog them like everyone else.
            text = path.read_text(encoding="utf-8", errors="replace")
            stripped = "\n".join(
                strip_comments(line) for line in text.splitlines())
            for match in OBS_CALL.finditer(stripped):
                arg = match.group(2).strip()
                if METRIC_NAME.match(arg):
                    seen.setdefault(arg.strip('"'), rel)
            for match in GAUGE_CALL.finditer(stripped):
                seen.setdefault(match.group(1), rel)
    for name in sorted(seen):
        if f"`{name}`" not in catalog:
            errors.append(
                f"{seen[name]}: metric {name} is not cataloged -- add a "
                f"`{name}` row to docs/metrics.md"
            )


# ---------------------------------------------------------------------------
# Check 9: concurrency discipline -- annotated wrappers and thread sites.
# ---------------------------------------------------------------------------

# Raw synchronization primitives the TSA annotations cannot see.  The
# annotated wrappers in src/common/thread_annotations.h are the only
# place allowed to touch them.
RAW_SYNC_PATTERN = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable_any|"
    r"condition_variable|lock_guard|unique_lock|scoped_lock)\b"
)
RAW_SYNC_ALLOWED = {"src/common/thread_annotations.h"}

# std::thread construction (a ctor call with arguments -- bare member
# declarations, std::thread::id, and hardware_concurrency() don't match).
THREAD_CTOR_PATTERN = re.compile(r"std::j?thread\s*[({]")
THREAD_CTOR_ALLOWED = {
    # The shared worker pool: the one sanctioned thread factory.
    "src/common/thread_pool.cc",
    # cqad's event-loop threads, the host thread that parks the executor
    # loops on the pool, and the drainer.
    "src/serve/server.cc",
    # The profiler's ring-drain aggregator: it must keep running while
    # pool workers are being sampled, so it cannot be a pool task.
    "src/obs/profiler.cc",
    # The resource sampler's once-a-second /proc tick.
    "src/obs/resource.cc",
}


def check_concurrency_discipline(path: Path, rel: str, text: str,
                                 errors: list[str]) -> None:
    if rel.startswith("tests/"):
        return  # Tests may exercise raw primitives directly.
    for lineno, line in enumerate(text.splitlines(), 1):
        code = strip_comments(line)
        if rel not in RAW_SYNC_ALLOWED:
            match = RAW_SYNC_PATTERN.search(code)
            if match:
                errors.append(
                    f"{rel}:{lineno}: raw {match.group(0)}; use the "
                    f"annotated cqa::Mutex/MutexLock/CondVar wrappers "
                    f"(src/common/thread_annotations.h) so Clang Thread "
                    f"Safety Analysis checks the locking contract"
                )
        if rel not in THREAD_CTOR_ALLOWED and THREAD_CTOR_PATTERN.search(code):
            errors.append(
                f"{rel}:{lineno}: naked std::thread construction; run work "
                f"on cqa::ThreadPool (src/common/thread_pool.h) or add the "
                f"site to THREAD_CTOR_ALLOWED in tools/lint.py with a "
                f"rationale"
            )


# ---------------------------------------------------------------------------
# Check 10: event demultiplexing -- epoll/poll confined to the reactor.
# ---------------------------------------------------------------------------

RAW_EVENT_PATTERN = re.compile(r"\b(?:epoll_\w+|ppoll|poll)\s*\(")
RAW_EVENT_ALLOWED = {"src/serve/reactor.cc", "src/serve/reactor.h"}


def check_event_demux_discipline(path: Path, rel: str, text: str,
                                 errors: list[str]) -> None:
    if rel in RAW_EVENT_ALLOWED:
        return
    for lineno, line in enumerate(text.splitlines(), 1):
        code = strip_strings(strip_comments(line))
        match = RAW_EVENT_PATTERN.search(code)
        if match:
            errors.append(
                f"{rel}:{lineno}: raw {match.group(0).strip()}...) call; fd "
                f"readiness goes through serve/reactor's EventLoop so "
                f"edge-trigger and EINTR handling have a single audited "
                f"owner"
            )


# ---------------------------------------------------------------------------
# Check 11: the block index is built only through Database::block_index().
# ---------------------------------------------------------------------------

BLOCK_INDEX_BUILD = re.compile(r"\bBlockIndex::Build\s*\(")


def check_shared_block_index(path: Path, rel: str, text: str,
                             errors: list[str]) -> None:
    if rel.startswith(("tests/", "src/storage/")):
        return
    for lineno, line in enumerate(text.splitlines(), 1):
        if BLOCK_INDEX_BUILD.search(strip_strings(strip_comments(line))):
            errors.append(
                f"{rel}:{lineno}: BlockIndex::Build outside src/storage; "
                f"use the database's shared index (Database::block_index())"
            )


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def strip_strings(line: str) -> str:
    """Empties double-quoted string literals (best-effort, single line)."""
    return re.sub(r'"(?:\\.|[^"\\])*"', '""', line)

def strip_comments(line: str) -> str:
    """Removes // comments and string-free best-effort /* */ spans."""
    line = re.sub(r"/\*.*?\*/", "", line)
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def main() -> int:
    errors: list[str] = []
    files = []
    for d in SRC_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        files.extend(
            p for p in sorted(root.rglob("*")) if p.suffix in CXX_SUFFIXES
        )
    for path in files:
        rel = path.relative_to(REPO).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        check_rng(path, rel, text, errors)
        check_obs_macros(path, rel, text, errors)
        check_include_guard(path, rel, text, errors)
        check_drawbatch_overrides(path, rel, text, errors)
        check_header_file_comment(path, rel, text, errors)
        check_concurrency_discipline(path, rel, text, errors)
        check_event_demux_discipline(path, rel, text, errors)
        check_shared_block_index(path, rel, text, errors)
    check_test_references(errors)
    check_bench_json_flag(errors)
    check_flag_docs(errors)
    check_metric_docs(errors)

    if errors:
        for err in errors:
            print(err, file=sys.stderr)
        print(f"lint.py: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"lint.py: OK ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
