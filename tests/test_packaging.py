"""The packaging metadata in pyproject.toml matches the package it installs.

The tests run from the source tree, so nothing else reads this metadata
before a user installs the package.
"""

import importlib
from pathlib import Path

import pytest

import morphocomp
from morphocomp import cli

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture(scope="module")
def project():
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


def test_version_is_the_package_version(project):
    # manifest.json records morphocomp.__version__ as its tool_version
    assert project["version"] == morphocomp.__version__


def test_console_script_resolves_to_cli_main(project):
    module, _, attribute = project["scripts"]["morphocomp"].partition(":")
    assert getattr(importlib.import_module(module), attribute) is cli.main
