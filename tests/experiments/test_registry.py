"""The figure registry: self-registration, aliases and CLI dispatch."""

import pytest

import repro.experiments  # noqa: F401  (imports populate the registry)
from repro.experiments import registry
from repro.experiments.registry import (
    figure_names,
    figure_specs,
    register_figure,
    resolve_figure,
)

CANONICAL = (
    "fig3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14", "tables", "ablations", "campaign",
)


@pytest.fixture
def scratch_registry():
    """Let a test register throwaway figures without polluting the registry."""
    names_before = set(registry._SPECS)
    aliases_before = set(registry._ALIASES)
    yield
    for name in set(registry._SPECS) - names_before:
        del registry._SPECS[name]
    for alias in set(registry._ALIASES) - aliases_before:
        del registry._ALIASES[alias]


class TestPopulation:
    def test_every_artifact_registered_in_display_order(self):
        assert figure_names() == CANONICAL

    def test_specs_carry_module_and_description(self):
        for spec in figure_specs():
            assert spec.module.startswith("repro.experiments.")
            assert spec.description

    def test_padded_spellings_are_aliases(self):
        names = figure_names(include_aliases=True)
        assert "fig3" in names and "fig03" in names
        assert resolve_figure("fig03") is resolve_figure("fig3")
        assert resolve_figure("fig10") is resolve_figure("fig10")

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown figure 'fig99'.*fig3"):
            resolve_figure("fig99")


class TestRegistration:
    def test_reregistration_is_idempotent(self, scratch_registry):
        first = register_figure("scratch", module="m", description="d")
        assert register_figure("scratch", module="m", description="d") is first

    def test_conflicting_reregistration_raises(self, scratch_registry):
        register_figure("scratch", module="m", description="d")
        with pytest.raises(ValueError, match="already registered differently"):
            register_figure("scratch", module="other", description="d")

    def test_taken_alias_raises(self, scratch_registry):
        with pytest.raises(ValueError, match="already taken"):
            register_figure(
                "scratch", module="m", description="d", aliases=("fig3",)
            )

    def test_fig_names_get_both_spellings(self, scratch_registry):
        spec = register_figure("fig04", module="m", description="d")
        assert "fig4" in spec.aliases
        assert resolve_figure("fig4") is spec


class TestCliIntegration:
    def test_cli_figures_derive_from_registry(self):
        from repro.cli import build_parser

        for name in figure_names(include_aliases=True):
            assert build_parser().parse_args(["figure", name]).name == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_figure_list_flag(self, capsys):
        from repro.cli import main

        assert main(["figure", "--list"]) == 0
        out = capsys.readouterr().out
        for name in CANONICAL:
            assert name in out

    def test_figure_without_name_prints_listing_and_usage(self, capsys):
        from repro.cli import main

        assert main(["figure"]) == 2
        captured = capsys.readouterr()
        assert "fig10" in captured.out

    def test_figure_accepts_padded_alias(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["figure", "fig03"])
        assert args.name == "fig03"
