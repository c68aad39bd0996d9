"""The `rsys` namespace: lazily resolved names behave like imported ones.

Each check runs in a fresh interpreter, where nothing has loaded the
submodules yet."""

import json

from util import fresh_python


def fresh_json(code):
    return json.loads(fresh_python(code).stdout)


def test_star_import_binds_every_name_in_all():
    unbound = fresh_json(
        "import json, rsys\n"
        "ns = {}\n"
        "exec('from rsys import *', ns)\n"
        "print(json.dumps([n for n in rsys.__all__ if ns.get(n, ns) is ns]))"
    )
    assert unbound == []


def test_each_name_is_the_object_its_defining_module_holds():
    differing = fresh_json(
        "import json, sys, rsys\n"
        "names = [n for n in rsys.__all__ if n != '__version__']\n"
        "objs = [getattr(rsys, n) for n in names]\n"
        "print(json.dumps([n for n, o in zip(names, objs)\n"
        "    if getattr(sys.modules[o.__module__], n) is not o]))"
    )
    assert differing == []


def test_submodules_resolve_as_attributes():
    found = fresh_json(
        "import json, rsys\n"
        "print(json.dumps([rsys.dynamics.orbit is rsys.orbit,\n"
        "    rsys.control.find_witness is rsys.find_witness,\n"
        "    rsys.models.__name__, rsys.errors.RsysError is rsys.RsysError]))"
    )
    assert found == [True, True, "rsys.models", True]


def test_dir_lists_all_and_the_submodules():
    listed, all_names = fresh_json(
        "import json, rsys\nprint(json.dumps([dir(rsys), rsys.__all__]))"
    )
    assert set(all_names) <= set(listed)
    assert {"control", "core", "dynamics", "errors", "formats", "models"} <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error_naming_it():
    message = fresh_python(
        "import rsys\n"
        "try:\n"
        "    rsys.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)"
    ).stdout
    assert message == "module 'rsys' has no attribute 'no_such_name'\n"
