"""Documentation coverage: the docs must track the code.

``docs/CLI.md`` documents every ``polynima`` subcommand; this test
walks the real argparse tree so adding a subcommand or option without
documenting it fails CI.  ``docs/REPRODUCING.md`` must mention every
bench script, and the README must link both documents.  The CI workflow
must only name scripts and pytest markers that exist.
"""

import argparse
import glob
import os
import re

import pytest

from repro.cli import build_parser


REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _read(*parts):
    path = os.path.join(REPO, *parts)
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _subparsers(parser):
    """name -> subcommand parser, from the argparse tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("CLI has no subparsers")


class TestCliDoc:

    @pytest.fixture(scope="class")
    def cli_md(self):
        return _read("docs", "CLI.md")

    def test_every_subcommand_documented(self, cli_md):
        for name in _subparsers(build_parser()):
            assert f"## {name}" in cli_md, \
                f"docs/CLI.md lacks a section for subcommand {name!r}"

    def test_every_long_option_documented(self, cli_md):
        """Each subcommand's long options must appear in the doc."""
        missing = []
        for name, sub in _subparsers(build_parser()).items():
            for action in sub._actions:
                for opt in action.option_strings:
                    if not opt.startswith("--"):
                        continue
                    if opt == "--help":
                        continue
                    if f"`{opt}" not in cli_md:
                        missing.append(f"{name} {opt}")
        assert not missing, \
            f"docs/CLI.md does not mention: {', '.join(missing)}"

    def test_no_phantom_subcommands(self, cli_md):
        """Sections must correspond to real subcommands (no dead docs)."""
        real = set(_subparsers(build_parser()))
        documented = set(re.findall(r"^## (\w+)$", cli_md, re.M))
        assert documented <= real, \
            f"docs/CLI.md documents unknown commands: {documented - real}"


class TestReproducingDoc:

    def test_every_bench_mentioned(self):
        doc = _read("docs", "REPRODUCING.md")
        benches = glob.glob(os.path.join(REPO, "benchmarks", "bench_*.py"))
        assert benches, "no bench scripts found"
        missing = [os.path.basename(p) for p in benches
                   if os.path.basename(p) not in doc]
        assert not missing, \
            f"docs/REPRODUCING.md does not mention: {missing}"

    def test_smoke_scripts_mentioned(self):
        doc = _read("docs", "REPRODUCING.md")
        for smoke in ("smoke_trace.py", "smoke_batch.py", "smoke_pgo.py"):
            assert smoke in doc


class TestCrossReferences:

    def test_readme_links_docs(self):
        readme = _read("README.md")
        for doc in ("docs/REPRODUCING.md", "docs/CLI.md",
                    "docs/ARCHITECTURE.md", "docs/OBSERVABILITY.md",
                    "docs/PERFORMANCE.md", "docs/SANITIZERS.md",
                    "docs/ISA.md", "docs/PGO.md"):
            assert doc in readme, f"README.md does not link {doc}"

    def test_docs_cross_reference_each_other(self):
        # Every doc must point at least back to the reproduction guide
        # or the architecture overview, so no page is a dead end.
        for name in ("ARCHITECTURE.md", "OBSERVABILITY.md",
                     "PERFORMANCE.md", "SANITIZERS.md", "CLI.md",
                     "ISA.md", "PGO.md"):
            doc = _read("docs", name)
            others = re.findall(r"\[([A-Z]+\.md)\]\(", doc) + \
                re.findall(r"docs/([A-Z]+\.md)", doc)
            assert others, f"docs/{name} references no sibling docs"


class TestCiWorkflow:
    """``.github/workflows/ci.yml`` must not outlive what it runs: every
    script it names exists, and its pytest markers match the ones
    ``pyproject.toml`` declares (parsed by regex, no YAML/TOML reader
    needed)."""

    @pytest.fixture(scope="class")
    def ci_yml(self):
        # Fold shell line continuations so one command is one line.
        return _read(".github", "workflows", "ci.yml").replace("\\\n", " ")

    @pytest.fixture(scope="class")
    def declared_markers(self):
        block = re.search(r"^markers = \[(.*?)^\]", _read("pyproject.toml"),
                          re.M | re.S)
        assert block, "pyproject.toml declares no pytest markers"
        return set(re.findall(r'^\s*"(\w+):', block.group(1), re.M))

    def test_named_scripts_exist(self, ci_yml):
        paths = set(re.findall(r"\b((?:benchmarks|tests)/[\w/.-]+\.py)\b",
                               ci_yml))
        # Scripts run by bare name after `cd benchmarks`.
        for command in re.findall(r"cd benchmarks && (.*)", ci_yml):
            paths.update(f"benchmarks/{name}" for name in
                         re.findall(r"\b(\w+\.py)\b", command))
        assert any(p.startswith("benchmarks/bench_") for p in paths)
        missing = sorted(p for p in paths
                         if not os.path.isfile(os.path.join(REPO, p)))
        assert not missing, f"ci.yml runs missing scripts: {missing}"

    def test_ci_markers_are_declared(self, ci_yml, declared_markers):
        used = set(re.findall(r"\bpytest\b[^\n]*?\s-m\s+(\w+)", ci_yml))
        assert used, "ci.yml selects no pytest markers"
        undeclared = sorted(used - declared_markers)
        assert not undeclared, f"ci.yml uses undeclared markers: {undeclared}"

    def test_declared_markers_are_used(self, declared_markers):
        sources = "".join(
            _read(path)
            for top in ("benchmarks", "tests")
            for path in glob.glob(os.path.join(REPO, top, "**", "*.py"),
                                  recursive=True))
        unused = sorted(m for m in declared_markers
                        if f"mark.{m}" not in sources)
        assert not unused, f"pyproject.toml declares unused markers: {unused}"


class TestIsaReference:
    """docs/ISA.md is generated from the single-source ISA spec and
    must stay in sync with it."""

    @pytest.fixture(scope="class")
    def isa_md(self):
        return _read("docs", "ISA.md")

    def test_every_mnemonic_documented(self, isa_md):
        from repro.isa import SPEC
        for name in SPEC:
            assert f"`{name}`" in isa_md, \
                f"docs/ISA.md does not document mnemonic {name!r}"

    def test_generated_block_matches_spec(self, isa_md):
        from repro.isa.spec import render_reference
        match = re.search(
            r"<!-- BEGIN GENERATED[^>]*-->\n(.*?)<!-- END GENERATED -->",
            isa_md, re.S)
        assert match, "docs/ISA.md is missing the generated block markers"
        assert match.group(1).strip() == render_reference().strip(), (
            "docs/ISA.md is stale: regenerate the table with "
            "`PYTHONPATH=src python -m repro.isa.spec`")

    def test_architecture_links_isa_reference(self):
        assert "ISA.md" in _read("docs", "ARCHITECTURE.md")
