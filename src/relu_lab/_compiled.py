"""The two compiled scipy routines relu-lab calls, HiGHS and expit, loaded
straight from their extension files.

Importing a name of ``scipy.optimize`` runs that package's whole
``__init__`` (minimize, shgo, linprog, scipy.sparse, scipy.fft,
numpy.f2py), and ``scipy.special``'s is as large; relu-lab needs none of
it.  :func:`_extension` loads one extension module from its file without
running the ``__init__`` of the packages above it, and registers it in
``sys.modules`` under its own dotted name, so a later ``import
scipy.optimize`` or ``import scipy.special`` reuses the same module
object (the package above it gets no attribute for it: reach it by an
import, not by an attribute chain).  This is the only module that knows
scipy's file layout.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import scipy


def _load(name: str):
    """The scipy extension module `name` (dotted), loaded from its file under
    scipy's package directory and registered in sys.modules (taken out
    again if its initialisation fails, as importlib's own loader does).
    ImportError when no file with an extension suffix is there."""
    *packages, leaf = name.split(".")[1:]
    folder = os.path.join(os.path.dirname(scipy.__file__), *packages)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, leaf + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                sys.modules.pop(name, None)
                raise
            return module
    raise ImportError(f"no extension module {name} in scipy "
                      f"{scipy.__version__}", name=name)


def _extension(name: str, *attrs: str):
    """The scipy extension module `name` (dotted): the copy in sys.modules,
    else the one _load gives.  ImportError naming scipy's version when it
    lacks one of `attrs`."""
    module = sys.modules[name] if name in sys.modules else _load(name)
    missing = [attr for attr in attrs if not hasattr(module, attr)]
    if missing:
        raise ImportError(f"extension module {name} of scipy "
                          f"{scipy.__version__} has no {', '.join(missing)}",
                          name=name)
    return module


#: scipy.optimize._highspy._core: the HiGHS core linprog(method="highs") runs
highs = _extension("scipy.optimize._highspy._core", "HighsModelStatus",
                   "HighsOptions", "MatrixFormat", "ObjSense", "_Highs",
                   "kHighsInf", "simplex_constants")
#: scipy.special._special_ufuncs.expit: the ufunc scipy.special.expit is
expit = _extension("scipy.special._special_ufuncs", "expit").expit
