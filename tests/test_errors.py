"""Every exception the package defines belongs to the errors.py taxonomy."""

import importlib
import inspect
import pkgutil

import minwsuper
from minwsuper import errors

ROOTS = (errors.UnsupportedFamilyError, errors.PreconditionError,
         errors.ConsistencyError)


def _package_exceptions():
    for info in pkgutil.iter_modules(minwsuper.__path__):
        module = importlib.import_module("minwsuper." + info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__):
                yield cls


def test_exceptions_subclass_the_taxonomy():
    found = list(_package_exceptions())
    assert set(ROOTS) <= set(found)
    stray = [cls.__qualname__ for cls in found
             if cls not in ROOTS and not issubclass(cls, ROOTS)]
    assert not stray
