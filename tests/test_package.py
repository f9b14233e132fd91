"""The package namespace: a submodule's name is never shadowed."""

import importlib.util
import pkgutil
import types

import noma_pep
import noma_pep.montecarlo as montecarlo


def test_no_submodule_shares_its_name_with_an_export():
    # a function bound under a submodule's name hides the module, so that
    # `import noma_pep.<name> as m` binds the function and a patch of
    # m._helper patches nothing
    submodules = {info.name for info in pkgutil.iter_modules(noma_pep.__path__)}
    assert {"montecarlo", "system"} <= submodules
    clashes = [name for name, value in vars(noma_pep).items()
               if name in submodules
               and not isinstance(value, types.ModuleType)]
    assert clashes == []


def test_simulator_module_is_montecarlo():
    assert isinstance(montecarlo, types.ModuleType)
    assert montecarlo.simulate is noma_pep.simulate
    assert importlib.util.find_spec("noma_pep.simulate") is None
