"""The package re-exports the public names of its modules, each once."""

import satiab
from satiab import allocator, linkbudget, ratemodel


def test_package_exports_every_public_name_of_its_modules():
    for module in (linkbudget, ratemodel, allocator):
        for name in module.__all__:
            assert getattr(satiab, name) is getattr(module, name), f"{module.__name__}.{name}"
            assert name in satiab.__all__
    assert len(satiab.__all__) == len(set(satiab.__all__))
    assert set(satiab.__all__) == {*linkbudget.__all__, *ratemodel.__all__, *allocator.__all__}
