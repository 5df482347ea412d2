"""Command-line driver for the advtext analyzer.

Exit status: 0 clean, 1 findings (or self-test regression), 2 usage error.
The counts are printed explicitly; an exit status equal to a count would
wrap mod 256 and could report 256 violating files as success.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .engine import SOURCE_SUFFIXES, AnalysisResult, Project
from .rules import FILE_RULES, PROJECT_RULES, RULES

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
LINT_DIRS = ("src", "tests", "bench", "examples")


def collect_files(args: list[str]) -> list[Path]:
    """Explicit paths must exist — a CI invocation that names a moved or
    misspelled directory must fail loudly, not pass on an empty file set."""
    if args:
        files: list[Path] = []
        for a in args:
            path = Path(a).resolve()
            if path.is_dir():
                files.extend(p for p in sorted(path.rglob("*"))
                             if p.suffix in SOURCE_SUFFIXES and p.is_file())
            elif path.is_file():
                files.append(path)
            else:
                raise FileNotFoundError(
                    f"analyzer: path '{a}' does not exist; refusing to "
                    "lint a vacuous file set")
        return files
    files = []
    for top in LINT_DIRS:
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                files.append(path)
    return files


def scope(paths: list[str]) -> tuple[list[Path], set[str] | None]:
    """The files to analyze and the repo-relative files to report on (None:
    all). Named paths take the ``--changed`` route: the whole tree is
    analyzed and findings are filtered to the named files, so one file and
    the whole tree give one verdict."""
    files = collect_files([])
    if not paths:
        return files, None
    named = collect_files(paths)
    known = set(files)
    files += [p for p in named if p not in known]
    return files, {rel_path(p) for p in named}


def changed_files(base_ref: str) -> set[str]:
    """Repo-relative source files changed vs ``base_ref`` plus untracked
    ones, filtered to the linted dirs. Used by ``--changed``: findings are
    restricted to these files while the symbol index / call graph stay
    repo-wide (an interprocedural fact is only as good as the whole graph)."""
    import subprocess

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True,
            text=True, check=True).stdout

    names = set(git("diff", "--name-only", "-z", base_ref, "--").split("\0"))
    names |= set(git("ls-files", "--others", "--exclude-standard",
                     "-z").split("\0"))
    prefixes = tuple(d + "/" for d in LINT_DIRS)
    return {n for n in names
            if n.endswith(SOURCE_SUFFIXES) and n.startswith(prefixes)}


def rel_path(path: Path) -> str:
    try:
        return path.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def load_project(paths: list[Path]) -> Project:
    files: dict[str, str] = {}
    for path in paths:
        files[rel_path(path)] = path.read_text(encoding="utf-8",
                                               errors="replace")
    return Project(files, file_exists=lambda r: (REPO_ROOT / r).is_file())


def print_timings(result: AnalysisResult) -> None:
    """Per-pass wall time (``--timings``). Deliberately not part of the
    JSON payload, which stays byte-stable for the golden test."""
    print("analyzer: pass timings")
    for name, secs in sorted(result.timings.items(),
                             key=lambda kv: (-kv[1], kv[0])):
        print(f"  {name:<18} {secs * 1000:8.1f} ms")
    total = sum(result.timings.values())
    print(f"  {'total':<18} {total * 1000:8.1f} ms")


def report(result: AnalysisResult, json_path: str | None) -> int:
    for f in result.findings:
        print(f.render())
    if json_path:
        payload = result.render_json()
        if json_path == "-":
            sys.stdout.write(payload)
        else:
            Path(json_path).write_text(payload, encoding="utf-8")
    if result.findings:
        bad_files = len({f.file for f in result.findings})
        print(f"analyzer: {len(result.findings)} finding(s) in "
              f"{bad_files} file(s) "
              f"({len(result.suppressed)} suppressed with reasons)",
              file=sys.stderr)
        return 1
    print(f"analyzer: {result.files_analyzed} files clean "
          f"({len(result.suppressed)} suppression(s) in effect)")
    return 0


def main(argv: list[str]) -> int:
    json_path: str | None = None
    run_self_test_only = False
    skip_self_test = False
    changed_base: str | None = None
    show_timings = False
    paths: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--json":
            json_path = next(it, None)
            if json_path is None:
                print("analyzer: --json needs a path (or '-')",
                      file=sys.stderr)
                return 2
        elif arg == "--changed":
            changed_base = next(it, None)
            if changed_base is None:
                print("analyzer: --changed needs a git base ref",
                      file=sys.stderr)
                return 2
        elif arg == "--timings":
            show_timings = True
        elif arg == "--regen-golden":
            from .selftest import regenerate_golden
            print(f"analyzer: rewrote {regenerate_golden()}")
            return 0
        elif arg == "--self-test":
            run_self_test_only = True
        elif arg == "--no-self-test":
            skip_self_test = True
        elif arg == "--list-rules":
            width = max(len(r) for r in RULES)
            for rule_id, rule in sorted(RULES.items()):
                kind = "project" if rule in PROJECT_RULES else "file"
                print(f"{rule_id:<{width}}  [{kind:>7}]  {rule.synopsis}")
            return 0
        elif arg in ("-h", "--help"):
            print(__doc__)
            print("usage: python3 tools/analyzer [paths...] [--json FILE|-]"
                  " [--changed BASE_REF] [--timings] [--self-test]"
                  " [--list-rules] [--regen-golden]")
            return 0
        elif arg.startswith("-"):
            print(f"analyzer: unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)

    # The self-test is always-on (the PR 5 lint pattern): every real run
    # first proves each rule still fires on its fixture and stays quiet on
    # the clean twin, so rule coverage cannot silently regress.
    if not skip_self_test:
        from .selftest import run_self_test
        failures = run_self_test(verbose=run_self_test_only,
                                 tree=run_self_test_only)
        if failures:
            for failure in failures:
                print(failure)
            print("analyzer: self-test FAILED — rule coverage regressed",
                  file=sys.stderr)
            return 1
        if run_self_test_only:
            print(f"analyzer: self-test OK ({len(FILE_RULES)} file rules, "
                  f"{len(PROJECT_RULES)} project rules)")
            return 0

    restrict: set[str] | None = None
    if changed_base is not None:
        if paths:
            print("analyzer: --changed and explicit paths are exclusive",
                  file=sys.stderr)
            return 2
        import subprocess
        try:
            restrict = changed_files(changed_base)
        except subprocess.CalledProcessError as err:
            print(f"analyzer: git failed resolving '{changed_base}': "
                  f"{err.stderr.strip()}", file=sys.stderr)
            return 2
        if not restrict:
            print(f"analyzer: no linted source files changed vs "
                  f"{changed_base}")
            return 0

    try:
        files, named = scope(paths)
        if named is not None:
            restrict = named
    except FileNotFoundError as err:
        print(err, file=sys.stderr)
        return 2
    result = load_project(files).analyze(restrict=restrict)
    if show_timings:
        print_timings(result)
    return report(result, json_path)
