"""Role -> engine resolution."""

import pytest

from roles import ROLES, available_engines, resolve


def test_roles_resolve_to_engines():
    everything = set(ROLES.values())
    assert {role: resolve(role, everything) for role in ROLES} == ROLES


def test_missing_optional_engine_resolves_to_none():
    assert resolve("batch", {"reference", "tensor"}) is None


@pytest.mark.parametrize("role", ["oracle", "array"])
def test_missing_required_engine_fails_loudly(role):
    others = set(ROLES.values()) - {ROLES[role]}
    with pytest.raises(RuntimeError, match=role):
        resolve(role, others)


def test_this_checkout_provides_the_required_engines():
    available = available_engines()
    for role in ("oracle", "array"):
        assert resolve(role, available) == ROLES[role]
