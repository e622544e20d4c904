"""The ``vidi`` CLI: run commands, artefacts, the §4.2 offline trace tools."""

from repro.tools.cli import main
from repro.tools.fuzz import FuzzOutcome, fuzz_replay, render_fuzz

__all__ = ["FuzzOutcome", "fuzz_replay", "main", "render_fuzz"]
