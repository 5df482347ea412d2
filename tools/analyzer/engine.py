"""Rule engine: findings, suppressions, and project-level analysis.

The engine is deliberately filesystem-agnostic: a :class:`Project` is built
from a ``{repo-relative-path: source-text}`` mapping plus a ``file_exists``
predicate, so the self-test can analyze a *virtual* fixture tree with the
exact same code paths the real repo scan uses.

Suppressions
------------
A finding on line L of a file is suppressed by a comment

    // ADVTEXT_ALLOW(rule-id): <reason>

placed either on line L itself (trailing a statement) or on the line
directly above it. The reason is mandatory and reviewable; a suppression
without one still suppresses its target (no double reporting) but raises
an ``allow-missing-reason`` finding of its own, so the tree cannot be
clean while carrying undocumented escapes. Naming a rule id the engine
does not know raises ``allow-unknown-rule`` — a typo must not silently
turn a suppression into a no-op.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from .lexer import LexedFile, lex

HEADER_SUFFIXES = (".h", ".hpp")
SOURCE_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")

_RE_ALLOW = re.compile(
    r"//\s*ADVTEXT_ALLOW\(\s*([A-Za-z0-9_,\- ]*?)\s*\)\s*(?::\s*(.*?)\s*)?$"
)


@dataclass(frozen=True)
class Finding:
    file: str
    line: int
    rule: str
    message: str
    #: Call-chain witness for interprocedural findings: each element is
    #: "file:line what", entry first, sink last. Empty for lexical rules.
    witness: tuple = ()

    def render(self) -> str:
        text = f"{self.file}:{self.line}: [{self.rule}] {self.message}"
        if self.witness:
            text += "".join(f"\n    via {step}" for step in self.witness)
        return text

    def to_json(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "witness": list(self.witness),
        }


@dataclass
class Suppression:
    file: str
    line: int  # line the comment sits on
    rule: str
    reason: str


@dataclass
class FileContext:
    """Everything the per-file rules see for one translation unit."""

    rel: str
    raw: str
    lexed: LexedFile
    file_exists: "callable"

    def __post_init__(self) -> None:
        self.code_lines = self.lexed.code.splitlines()
        self.raw_lines = self.raw.splitlines()
        self.is_header = PurePosixPath(self.rel).suffix in HEADER_SUFFIXES
        self.in_library = self.rel.startswith("src/")

    def in_dir(self, *prefixes: str) -> bool:
        return any(self.rel.startswith(p) for p in prefixes)


@dataclass
class AnalysisResult:
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, Suppression]] = field(default_factory=list)
    files_analyzed: int = 0
    #: pass name -> wall seconds. Deliberately *not* part of to_json(): the
    #: findings payload stays byte-stable for golden tests and trend diffs.
    timings: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return {
            "analyzer_version": 1,
            "files_analyzed": self.files_analyzed,
            "findings": [f.to_json() for f in self.findings],
            "suppressed": [
                dict(f.to_json(), reason=s.reason) for f, s in self.suppressed
            ],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


def parse_suppressions(rel: str, lexed: LexedFile,
                       known_rules: set[str]) -> tuple[list[Suppression],
                                                       list[Finding]]:
    """Extracts ADVTEXT_ALLOW annotations; malformed ones become findings."""
    suppressions: list[Suppression] = []
    findings: list[Finding] = []
    for line_no, text in lexed.comments:
        m = _RE_ALLOW.search(text)
        if not m:
            if "ADVTEXT_ALLOW" in text:
                findings.append(Finding(
                    rel, line_no, "allow-unknown-rule",
                    "malformed ADVTEXT_ALLOW annotation; expected "
                    "`// ADVTEXT_ALLOW(rule-id): reason`"))
            continue
        rules_text, reason = m.group(1), (m.group(2) or "").strip()
        rule_ids = [r.strip() for r in rules_text.split(",") if r.strip()]
        if not rule_ids:
            findings.append(Finding(
                rel, line_no, "allow-unknown-rule",
                "ADVTEXT_ALLOW names no rule id"))
            continue
        for rule_id in rule_ids:
            if rule_id not in known_rules:
                findings.append(Finding(
                    rel, line_no, "allow-unknown-rule",
                    f"ADVTEXT_ALLOW names unknown rule '{rule_id}'"))
                continue
            if not reason:
                findings.append(Finding(
                    rel, line_no, "allow-missing-reason",
                    f"ADVTEXT_ALLOW({rule_id}) carries no reason; every "
                    "suppression must explain itself for review"))
            suppressions.append(Suppression(rel, line_no, rule_id, reason))
    return suppressions, findings


def apply_suppressions(
        findings: list[Finding],
        suppressions: list[Suppression]) -> tuple[list[Finding],
                                                  list[tuple[Finding,
                                                             Suppression]]]:
    """A suppression covers findings of its rule on its own line and the
    line directly below (the annotate-above idiom)."""
    index: dict[tuple[str, str, int], Suppression] = {}
    for s in suppressions:
        index[(s.file, s.rule, s.line)] = s
        index.setdefault((s.file, s.rule, s.line + 1), s)
    kept: list[Finding] = []
    silenced: list[tuple[Finding, Suppression]] = []
    for f in findings:
        # The suppression-integrity findings cannot themselves be suppressed.
        if f.rule in ("allow-missing-reason", "allow-unknown-rule"):
            kept.append(f)
            continue
        s = index.get((f.file, f.rule, f.line))
        if s is not None:
            silenced.append((f, s))
        else:
            kept.append(f)
    return kept, silenced


class Project:
    """One analysis run over a set of translation units."""

    def __init__(self, files: dict[str, str], file_exists=None):
        from . import rules  # late import: rules imports engine types

        self.files = files
        self._extra_exists = file_exists
        self.rules = rules
        self._project_findings: tuple[list[Finding], dict] | None = None
        self.contexts: list[FileContext] = []
        for rel in sorted(files):
            self.contexts.append(FileContext(
                rel=rel, raw=files[rel], lexed=lex(files[rel]),
                file_exists=self._file_exists))

    def _file_exists(self, rel: str) -> bool:
        if rel in self.files:
            return True
        if self._extra_exists is not None:
            return self._extra_exists(rel)
        return False

    def analyze(self, restrict: set[str] | None = None) -> AnalysisResult:
        """Full analysis, or — with ``restrict`` — the same analysis with
        findings filtered to the restricted files. File rules run only on
        those files; suppression parsing and the semantic model (symbol
        index, call graph) always cover the whole file set, so a file gets
        the same verdict whether it is named alone or seen with the tree.
        The project-rule findings do not depend on ``restrict`` and are
        computed once per Project."""
        import time

        result = AnalysisResult(files_analyzed=len(self.contexts)
                                if restrict is None else len(restrict))
        known = set(self.rules.RULES)
        all_findings: list[Finding] = []
        all_suppressions: list[Suppression] = []
        t0 = time.monotonic()
        for ctx in self.contexts:
            sups, sup_findings = parse_suppressions(ctx.rel, ctx.lexed, known)
            all_suppressions.extend(sups)
            all_findings.extend(sup_findings)
            if restrict is not None and ctx.rel not in restrict:
                continue
            for rule in self.rules.FILE_RULES:
                all_findings.extend(rule.check(ctx))
        result.timings["file-rules"] = time.monotonic() - t0

        if self._project_findings is None:
            self._project_findings = self._run_project_rules()
        findings, timings = self._project_findings
        all_findings.extend(findings)
        result.timings.update(timings)

        if restrict is not None:
            all_findings = [f for f in all_findings if f.file in restrict]
        all_findings.sort(key=lambda f: (f.file, f.line, f.rule))
        result.findings, result.suppressed = apply_suppressions(
            all_findings, all_suppressions)
        return result

    def _run_project_rules(self) -> tuple[list[Finding], dict]:
        import time

        timings: dict[str, float] = {}
        model = None
        if any(r.semantic for r in self.rules.PROJECT_RULES):
            from . import dataflow  # late: dataflow imports engine types

            model = dataflow.SemanticModel(self.contexts)
            timings.update(model.timings)
        findings: list[Finding] = []
        for rule in self.rules.PROJECT_RULES:
            t0 = time.monotonic()
            findings.extend(rule.check_project(self.contexts, model))
            timings[rule.id] = time.monotonic() - t0
        return findings, timings
