import numpy as np
import pytest

from qpfix import catalog
from qpfix.order import CoupledMap, PreorderCtx, SelfMap, check_phi_bound, check_preorder_laws
from qpfix.spaces import check_axioms, check_T0


INTERVAL_IDS = ["upper_interval", "lower_interval"]


@pytest.mark.parametrize("space_id", INTERVAL_IDS)
def test_catalog_spaces_pass_axioms(space_id):
    space = catalog.get_space(space_id, lo=0.0, hi=1.0)
    assert check_axioms(space).passed
    assert check_T0(space).passed == catalog.SPACE_LABELS[space_id]["t0"]


def test_finite_space_entry():
    space = catalog.get_space("finite", matrix=[[0, 1], [2, 0]])
    assert space.is_finite
    assert space.dist(0, 1) == 1.0


@pytest.mark.parametrize("phi_id", ["identity", "arctan", "neg_exp"])
@pytest.mark.parametrize("space_id", INTERVAL_IDS)
def test_catalog_pairs_pass_preorder_laws(space_id, phi_id):
    space = catalog.get_space(space_id, lo=0.0, hi=1.0)
    phi = catalog.get_phi(phi_id)
    ctx = PreorderCtx(space, phi)
    assert check_preorder_laws(ctx).passed
    assert check_phi_bound(phi, space.grid()).passed


def test_phi_table_on_finite_space():
    phi = catalog.get_phi("table", values=[0.0, 2.0, 1.0])
    assert phi(1) == 2.0
    assert phi.declared_bound == 2.0


def test_neg_exp_values():
    phi = catalog.get_phi("neg_exp")
    assert phi(0.0) == -1.0
    assert phi(100.0) == pytest.approx(0.0, abs=1e-9)
    assert phi.declared_bound == 0.0


def test_map_formula_entries():
    assert catalog.get_map("coupled_max")(0.3, 0.8) == 0.8
    assert catalog.get_map("coupled_min")(0.3, 0.8) == 0.3
    assert catalog.get_map("coupled_affine")(1.0, 1.0) == 1.0
    assert catalog.get_map("coupled_product")(0.5, 0.5) == 0.25
    assert catalog.get_map("coupled_projection")(0.2, 0.9) == 0.2
    assert catalog.get_map("affine_pull", a=0.5, b=0.5)(0.0) == 0.5
    assert catalog.get_map("halve")(0.5) == 0.25
    assert catalog.get_map("sqrt_pull")(0.25) == 0.5
    assert catalog.get_map("cbrt_pull")(0.125) == pytest.approx(0.5)
    assert catalog.get_map("identity")(0.7) == 0.7
    assert catalog.get_map("step")(0.5) == 1.0
    assert catalog.get_map("step")(0.49) == 0.0


def test_table_maps():
    coupled = catalog.get_map("coupled_table", matrix=[[0, 1], [1, 1]])
    assert isinstance(coupled, CoupledMap)
    assert coupled(0, 1) == 1
    g = catalog.get_map("table", values=[1, 0])
    assert isinstance(g, SelfMap)
    assert g(0) == 1


def test_table_entries_keep_their_value_and_read_as_python_numbers():
    coupled = catalog.get_map("coupled_table", matrix=np.array([[0, 1], [1, 1]]))
    assert type(coupled(0, 1)) is int and coupled(0, 1) == 1
    g = catalog.get_map("table", values=[np.uint8(1), np.int64(0)])
    assert (type(g(0)), g(0), g(1)) == (int, 1, 0)
    phi = catalog.get_phi("table", values=[1, np.float32(0.5), np.int64(2)])
    assert [phi(i) for i in range(3)] == [1.0, 0.5, 2.0] and phi.declared_bound == 2.0


@pytest.mark.parametrize("build", [
    lambda: catalog.get_map("coupled_table", matrix=[[0.7, 1], [1, 1]]),
    lambda: catalog.get_map("coupled_table", matrix=[[True, 1], [1, 1]]),
    lambda: catalog.get_map("coupled_table", matrix=[[0, 1], [1]]),
    lambda: catalog.get_map("coupled_table", matrix=[0, 1]),
    lambda: catalog.get_map("coupled_table", matrix="01"),
    lambda: catalog.get_map("table", values=[0.7, 1]),
    lambda: catalog.get_map("table", values=["1", 0]),
    lambda: catalog.get_map("table", values=[np.True_, 0]),
    lambda: catalog.get_map("table", values=3),
    lambda: catalog.get_phi("table", values=["0.5", 0]),
    lambda: catalog.get_phi("table", values=[True, 0]),
    lambda: catalog.get_phi("table", values=[float("nan"), 0]),
    lambda: catalog.get_phi("table", values=[float("inf"), 0]),
    lambda: catalog.get_phi("table", values=[10**400, 0]),
    lambda: catalog.get_phi("table", values=[None, 0]),
])
def test_table_entries_are_not_coerced(build):
    with pytest.raises(catalog.CatalogError, match="must be"):
        build()


@pytest.mark.parametrize("value", [None, "0.5", True, [0.5], float("nan"), float("inf"), 10**400],
                         ids=["null", "string", "bool", "list", "nan", "inf", "10**400"])
@pytest.mark.parametrize("build, key", [
    pytest.param(lambda **p: catalog.get_space("upper_interval", **p), "lo", id="space-lo"),
    pytest.param(lambda **p: catalog.get_space("lower_interval", **p), "hi", id="space-hi"),
    pytest.param(lambda **p: catalog.get_phi("identity", **p), "bound", id="phi-bound"),
    pytest.param(lambda **p: catalog.get_phi("table", values=[0, 1], **p), "bound",
                 id="table-bound"),
    pytest.param(lambda **p: catalog.get_map("coupled_affine", **p), "c", id="affine-c"),
    pytest.param(lambda **p: catalog.get_map("affine_pull", **p), "a", id="pull-a"),
    pytest.param(lambda **p: catalog.get_map("step", **p), "threshold", id="step-threshold"),
    pytest.param(lambda **p: catalog.get_map("step", **p), "high", id="step-high"),
])
def test_scalar_parameters_are_not_coerced(build, key, value):
    # "lo": null used to raise TypeError, and "lo": "0.5" to read as 0.5
    with pytest.raises(catalog.CatalogError, match=f"{key} must be a finite number"):
        build(**{key: value})
    build(**{key: np.float64(0.5)})
    build(**{key: 0})


def test_unknown_ids_raise():
    with pytest.raises(catalog.CatalogError):
        catalog.get_space("banach")
    with pytest.raises(catalog.CatalogError):
        catalog.get_phi("log")
    with pytest.raises(catalog.CatalogError):
        catalog.get_map("teleport")


def test_extra_params_rejected():
    with pytest.raises(catalog.CatalogError):
        catalog.get_space("upper_interval", lo=0, hi=1, radius=2)
    with pytest.raises(catalog.CatalogError):
        catalog.get_phi("identity", bound=1.0, slope=3)
    with pytest.raises(catalog.CatalogError):
        catalog.get_map("coupled_max", power=2)


def test_labels_present():
    for labels in catalog.SPACE_LABELS.values():
        assert "left_k_complete" in labels and "notes" in labels
