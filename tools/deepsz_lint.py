#!/usr/bin/env python3
"""deepsz_lint: regex+context checks for repo-specific invariants.

These rules encode hard-won bugs from this repo's history (see
docs/static_analysis.md for the full rationale):

  untrusted-alloc    Every allocation sized from a ByteReader / bitstream
                     header value must flow through untrusted_reserve_hint()
                     or be preceded by a payload-derived cap check. A plain
                     vector(n) on a forged count aborts under ASan instead
                     of throwing (PR 5).
  wrap-add-bound     Bounds checks on untrusted lengths must use the
                     wrap-proof `n > remaining` shape. `pos + n > size`
                     wraps where size_t is 32 bits and admits an OOB read.
  naked-mutex        No std::mutex / std::condition_variable / lock_guard /
                     unique_lock outside src/util/. Everything else uses
                     util::Mutex / util::MutexLock / util::CondVar so clang
                     -Wthread-safety sees every acquisition.
  clock-outside-obs  No *_clock::now() / Clock::now() in src/ outside
                     src/obs/: durations come from obs::TraceSpan. Clock
                     reads that drive behaviour (deadlines) carry an allow().
  global-pool-in-codec
                     Codec code must not submit work to ThreadPool::global()
                     directly: nested submission from a pool worker
                     deadlocks (PR 1). Use util::parallel_for /
                     parallel_for_chunked, which run inline when
                     ThreadPool::in_worker(). Querying .size() is fine.

Suppress a finding with a trailing or preceding comment:

    // deepsz-lint: allow(<rule>) <reason>

Usage:
    tools/deepsz_lint.py [--root DIR] [paths...]   # default: src/
    tools/deepsz_lint.py --self-test

Exit status: 0 clean, 1 findings, 2 self-test failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

CPP_EXTS = {".cpp", ".cc", ".h", ".hpp"}

# ---------------------------------------------------------------------------
# Shared helpers


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


ALLOW_RE = re.compile(r"//\s*deepsz-lint:\s*allow\(([\w\-, ]+)\)")


def suppressed(lines: list[str], idx: int, rule: str) -> bool:
    """True when line idx (0-based) or the line above carries an allow()."""
    for j in (idx, idx - 1):
        if 0 <= j < len(lines):
            m = ALLOW_RE.search(lines[j])
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return True
    return False


def strip_comments_and_strings(line: str) -> str:
    """Coarse single-line scrub so rules don't fire inside comments/strings.

    Good enough for this codebase's style (no multi-line /* */ blocks around
    the constructs these rules target); the self-test pins the behavior.
    """
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    line = re.sub(r"//.*$", "", line)
    return line


# ---------------------------------------------------------------------------
# Rule: untrusted-alloc

TAINT_RE = re.compile(
    r"(\w+)\s*=\s*[^;=]*(?:\.get<|read_bits\s*\(|read_extended\s*\()"
)
ALLOC_RES = [
    re.compile(r"\.(?:resize|reserve)\s*\(([^;]*)\)"),
    re.compile(r"std::vector<[^;]*>\s+\w+\s*\(([^;]*)\)"),
    re.compile(r"std::make_unique<[^;]*\[\]>\s*\(([^;]*)\)"),
    re.compile(r"\bnew\s+[\w:]+\s*\[([^\]]*)\]"),
]
HINT_RE = re.compile(r"untrusted_reserve_hint\s*\(")


def _guarded(code_lines: list[str], var: str, taint_idx: int,
             use_idx: int) -> bool:
    """True when var is cap-checked between its tainted def and the alloc.

    A cap check is a comparison on the var (typically `if (var > cap) throw`)
    or a clamp (std::min / std::clamp / untrusted_reserve_hint involving it).
    This is a heuristic: any comparison counts, because the shape we must
    catch is an allocation with NO check at all between header read and use.
    """
    cmp_re = re.compile(
        r"\b" + re.escape(var) + r"\b\s*(?:>|>=|<|<=)|"
        r"(?:>|>=|<|<=)\s*" + re.escape(var) + r"\b")
    clamp_re = re.compile(
        r"(?:std::min|std::clamp|untrusted_reserve_hint)[^;]*\b" +
        re.escape(var) + r"\b")
    for j in range(taint_idx, use_idx + 1):
        code = code_lines[j]
        if cmp_re.search(code) or clamp_re.search(code):
            return True
    return False


def check_untrusted_alloc(path: str, lines: list[str]) -> list[Finding]:
    code_lines = [strip_comments_and_strings(ln) for ln in lines]
    taints: dict[str, int] = {}
    for i, code in enumerate(code_lines):
        m = TAINT_RE.search(code)
        if m:
            taints.setdefault(m.group(1), i)

    out: list[Finding] = []
    for i, code in enumerate(code_lines):
        for alloc_re in ALLOC_RES:
            for m in alloc_re.finditer(code):
                arg = m.group(1)
                if HINT_RE.search(arg):
                    continue
                for var, ti in taints.items():
                    if ti > i:
                        continue
                    if not re.search(r"\b" + re.escape(var) + r"\b", arg):
                        continue
                    if _guarded(code_lines, var, ti, i):
                        continue
                    if suppressed(lines, i, "untrusted-alloc"):
                        continue
                    out.append(Finding(
                        path, i + 1, "untrusted-alloc",
                        f"allocation sized by '{var}' (read from the stream "
                        f"at line {ti + 1}) with no cap check in between; "
                        "use untrusted_reserve_hint() or bound it against "
                        "the payload first"))
    return out


# ---------------------------------------------------------------------------
# Rule: wrap-add-bound
#
# Flags `A + n > B` / `A + n >= B` where n is a bare identifier (a length
# variable) and B looks like a size (x.size(), x.remaining(), *_size, size,
# len, n). Literal addends (`pos + 2 > size`) cannot be attacker-scaled and
# are not flagged; neither are cast/member-access addends.

WRAP_RE = re.compile(
    r"[\w\)\]\.]+\s*\+\s*[a-zA-Z_]\w*\s*(?:\+\s*[a-zA-Z_]\w*\s*)*(?:>|>=)\s*"
    r"(?:[\w\.\->:]*(?:\.size\(\)|\.remaining\(\)|->size\(\))|"
    r"\w*_size\b|\bsize\b|\blen\b|\bn\b)")


def check_wrap_add_bound(path: str, lines: list[str]) -> list[Finding]:
    out: list[Finding] = []
    for i, raw in enumerate(lines):
        code = strip_comments_and_strings(raw)
        m = WRAP_RE.search(code)
        if not m:
            continue
        # Skip shift/compare operators caught by loose matching.
        if ">>" in m.group(0):
            continue
        if suppressed(lines, i, "wrap-add-bound"):
            continue
        out.append(Finding(
            path, i + 1, "wrap-add-bound",
            "additive bounds check can wrap; rewrite as the subtractive "
            "`n > limit - pos` / `n > remaining()` shape (the subtrahend "
            "is provably <= the limit at a correct check site)"))
    return out


# ---------------------------------------------------------------------------
# Rule: naked-mutex

NAKED_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")


def check_naked_mutex(path: str, lines: list[str]) -> list[Finding]:
    norm = path.replace(os.sep, "/")
    if "/util/" in norm or norm.startswith("util/"):
        return []
    out: list[Finding] = []
    for i, raw in enumerate(lines):
        code = strip_comments_and_strings(raw)
        for m in NAKED_RE.finditer(code):
            if suppressed(lines, i, "naked-mutex"):
                continue
            out.append(Finding(
                path, i + 1, "naked-mutex",
                f"std::{m.group(1)} outside src/util/; use util::Mutex / "
                "util::MutexLock / util::CondVar so -Wthread-safety sees "
                "the acquisition"))
    return out


# ---------------------------------------------------------------------------
# Rule: clock-outside-obs

CLOCK_RE = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock|\w*Clock)"
    r"::now\s*\(")


def check_clock_outside_obs(path: str, lines: list[str]) -> list[Finding]:
    norm = path.replace(os.sep, "/")
    in_src = norm.startswith("src/") or "/src/" in norm
    if not in_src or "src/obs/" in norm:
        return []
    out: list[Finding] = []
    for i, raw in enumerate(lines):
        code = strip_comments_and_strings(raw)
        for m in CLOCK_RE.finditer(code):
            if suppressed(lines, i, "clock-outside-obs"):
                continue
            out.append(Finding(
                path, i + 1, "clock-outside-obs",
                f"{m.group(1)}::now() outside src/obs/; time with an "
                "obs::TraceSpan (close() returns the duration) or "
                "obs::now_ns(), or allow() a read that drives behaviour"))
    return out


# ---------------------------------------------------------------------------
# Rule: global-pool-in-codec

CODEC_DIRS = ("sz", "lossless", "codec", "baselines", "compress", "core",
              "zfp")
POOL_RE = re.compile(r"ThreadPool::global\s*\(\s*\)\s*(?!\.\s*size\s*\()")


def check_global_pool(path: str, lines: list[str]) -> list[Finding]:
    norm = path.replace(os.sep, "/")
    if not any(f"/{d}/" in norm or norm.startswith(f"{d}/")
               for d in CODEC_DIRS):
        return []
    has_guard = any("in_worker()" in strip_comments_and_strings(ln)
                    for ln in lines)
    out: list[Finding] = []
    for i, raw in enumerate(lines):
        code = strip_comments_and_strings(raw)
        if not POOL_RE.search(code):
            continue
        if has_guard:
            continue
        if suppressed(lines, i, "global-pool-in-codec"):
            continue
        out.append(Finding(
            path, i + 1, "global-pool-in-codec",
            "direct ThreadPool::global() use in codec code without an "
            "in_worker() guard; nested submission from a pool worker "
            "deadlocks — use util::parallel_for, which runs inline on "
            "workers"))
    return out


RULES = [
    check_untrusted_alloc,
    check_wrap_add_bound,
    check_naked_mutex,
    check_clock_outside_obs,
    check_global_pool,
]


def lint_file(path: str, display: str | None = None) -> list[Finding]:
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()
    shown = display if display is not None else path
    out: list[Finding] = []
    for rule in RULES:
        out.extend(rule(shown, lines))
    return out


def lint_tree(root: str, rel_paths: list[str]) -> list[Finding]:
    out: list[Finding] = []
    for rel in rel_paths:
        full = os.path.join(root, rel)
        if os.path.isfile(full):
            if os.path.splitext(full)[1] in CPP_EXTS:
                out.extend(lint_file(full, rel))
            continue
        for dirpath, _, files in sorted(os.walk(full)):
            for name in sorted(files):
                if os.path.splitext(name)[1] not in CPP_EXTS:
                    continue
                fp = os.path.join(dirpath, name)
                out.extend(lint_file(fp, os.path.relpath(fp, root)))
    return out


# ---------------------------------------------------------------------------
# Self test: every rule must fire on its known-bad snippet and stay silent
# on the known-good rewrite.

SELF_TESTS = [
    # (name, relative path the snippet pretends to live at,
    #  snippet, expected rule names)
    ("unguarded header alloc", "src/codec/bad.cpp", """
        auto n = r.get<std::uint64_t>();
        std::vector<float> out(n);
    """, ["untrusted-alloc"]),
    ("alloc guarded by cap check", "src/codec/good.cpp", """
        auto n = r.get<std::uint64_t>();
        if (n > r.remaining()) throw std::runtime_error("bad");
        std::vector<float> out(n);
    """, []),
    ("alloc via reserve hint", "src/codec/good2.cpp", """
        auto n = r.get<std::uint64_t>();
        out.reserve(untrusted_reserve_hint(n, payload.size()));
    """, []),
    ("bitstream count into resize", "src/sz/bad2.cpp", """
        auto count = static_cast<std::size_t>(br.read_bits(32));
        table.resize(count);
    """, ["untrusted-alloc"]),
    ("suppressed alloc", "src/codec/sup.cpp", """
        auto n = r.get<std::uint32_t>();
        // deepsz-lint: allow(untrusted-alloc) n is <= 16 by wire format
        std::vector<int> v(n);
    """, []),
    ("additive bound on length", "src/lossless/bad3.cpp", """
        if (pos + lit_len > in.size()) throw std::runtime_error("overrun");
    """, ["wrap-add-bound"]),
    ("three-term additive bound", "src/lossless/bad4.cpp", """
        if (out.size() + lit_len + match_len > raw_size) throw Overrun();
    """, ["wrap-add-bound"]),
    ("subtractive wrap-proof bound", "src/lossless/good3.cpp", """
        if (lit_len > in.size() - pos) throw std::runtime_error("overrun");
    """, []),
    ("constant addend is fine", "src/lossless/good4.cpp", """
        if (pos + 4 > data_.size()) return;
    """, []),
    ("comment does not fire", "src/lossless/good5.cpp", """
        // the old `pos + lit_len > in.size()` shape wrapped on 32-bit
        if (lit_len > in.size() - pos) throw std::runtime_error("overrun");
    """, []),
    ("naked std::mutex in serve", "src/serve/bad5.cpp", """
        std::mutex mu_;
    """, ["naked-mutex"]),
    ("std::lock_guard in server", "src/server/bad6.cpp", """
        std::lock_guard<std::mutex> lk(mu_);
    """, ["naked-mutex", "naked-mutex"]),
    ("std::mutex inside util is fine", "src/util/mutex.h", """
        std::mutex mu_;
    """, []),
    ("annotated wrapper use is fine", "src/serve/good6.cpp", """
        util::MutexLock lock(mu_);
    """, []),
    ("stopwatch clock read in serve", "src/serve/bad10.cpp", """
        const auto t0 = std::chrono::steady_clock::now();
    """, ["clock-outside-obs"]),
    ("aliased clock read in server", "src/server/bad11.cpp", """
        auto start = Clock::now();
    """, ["clock-outside-obs"]),
    ("clock read inside obs is fine", "src/obs/good10.cpp", """
        const auto t = SteadyClock::now();
    """, []),
    ("behavioural clock read allowed", "src/server/good11.cpp", """
        // deepsz-lint: allow(clock-outside-obs) the request's deadline
        deadline = std::chrono::steady_clock::now() + budget;
    """, []),
    ("global pool submit in codec", "src/sz/bad7.cpp", """
        util::ThreadPool::global().submit([&] { work(); });
    """, ["global-pool-in-codec"]),
    ("pool size query is fine", "src/core/good7.cpp", """
        if (util::ThreadPool::global().size() <= 1) { serial(); }
    """, []),
    ("pool use with in_worker guard", "src/sz/good8.cpp", """
        if (ThreadPool::in_worker()) { fn(); return; }
        util::ThreadPool::global().submit(fn);
    """, []),
    ("pool use outside codec dirs", "src/server/good9.cpp", """
        util::ThreadPool::global().submit(fn);
    """, []),
]


def self_test() -> int:
    failures = 0
    for name, fake_path, snippet, expected in SELF_TESTS:
        lines = snippet.splitlines()
        got: list[Finding] = []
        for rule in RULES:
            got.extend(rule(fake_path, lines))
        got_rules = sorted(f.rule for f in got)
        if got_rules != sorted(expected):
            failures += 1
            print(f"SELF-TEST FAIL: {name}: expected {sorted(expected)}, "
                  f"got {got_rules}", file=sys.stderr)
            for f in got:
                print(f"    {f}", file=sys.stderr)
    if failures:
        print(f"self-test: {failures}/{len(SELF_TESTS)} cases failed",
              file=sys.stderr)
        return 2
    print(f"self-test: all {len(SELF_TESTS)} cases passed")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded known-bad/known-good snippets")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories relative to root "
                         "(default: src)")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    rel_paths = args.paths or ["src"]
    findings = lint_tree(root, rel_paths)
    for f in findings:
        print(f)
    if findings:
        print(f"deepsz_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("deepsz_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
