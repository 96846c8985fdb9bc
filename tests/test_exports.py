import importlib
import pkgutil

import pytest

import coverlattice

MODULES = ["coverlattice"] + [
    f"coverlattice.{info.name}" for info in pkgutil.iter_modules(coverlattice.__path__)
]


def test_every_submodule_is_listed():
    assert len(MODULES) == 8  # the package and its seven modules


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    assert len(exported) == len(set(exported)), f"{module}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}, which do not resolve"


PUBLIC_NAMES = [
    "Bipartition",
    "ClosureCertificate",
    "CoverError",
    "CoverLattice",
    "DEFAULT_MAX_VERTICES",
    "DimensionReport",
    "Graph",
    "GraphAnalysis",
    "GraphError",
    "HasseDiagram",
    "InconsistencyError",
    "LabeledBipartiteGraph",
    "LatticeError",
    "LatticeVerification",
    "Relabeling",
    "analyze_graph",
    "as_graph",
    "bipartition",
    "dimension_report",
    "enumerate_minimal_covers",
    "enumerate_sublattices",
    "format_covers",
    "format_lattice",
    "format_report",
    "graph_from_edges",
    "graph_from_lattice",
    "hasse",
    "hasse_to_dot",
    "multichain_counts",
    "parse_graph",
    "parse_labeled",
    "parse_lattice",
    "perfect_matching",
    "random_sublattice",
    "rank",
    "rank_exact",
    "serialize_labeled",
    "verify_lattice",
]


def test_public_surface_is_pinned():
    assert sorted(coverlattice.__all__) == PUBLIC_NAMES
