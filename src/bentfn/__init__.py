"""Bent-function constructions over small binary fields, with exact
exhaustive verification of their structural properties.

`import bentfn` executes none of the submodules below: each is put into
`sys.modules` through `importlib.util.LazyLoader` and runs on its first
attribute access, and the package serves the public names of `_PUBLIC`
through a module `__getattr__`.  `bentfn.cli` is not registered, since
`python -m bentfn.cli` warns about a module already in `sys.modules`; it
is imported the ordinary way.
"""

import importlib.util
import sys

# submodule -> its public names, in dependency order
_PUBLIC = {
    "errors": ("BentError", "DomainError", "ParameterError", "ParseError",
               "ResourceError"),
    "rng": ("XorShift64Star",),
    "gf2": ("FieldCtx", "GpsParams", "make_field", "validate_gps_params"),
    "gf2vec": (),
    "boolfn": ("BoolFn", "Space", "anf", "anf_degree", "autocorrelation", "dual",
               "ext_walsh_spectrum", "is_balanced", "is_bent", "load_table",
               "plateaued_order", "save_table", "walsh_transform"),
    "vectorial": ("VecFn", "check_component_dual_linearity", "component",
                  "is_vectorial_bent"),
    "derivative": ("Subspace", "derivative", "ea_transform", "enumerate_M_subspaces",
                   "has_M_subspace", "linearity_index", "second_derivative"),
    "construct": ("PermTable", "PropertyPResult", "SubfieldFn", "build_cor_ex",
                  "check_property_P", "g_lambda", "glambda_nonconstant", "gmm",
                  "gmm_dual", "gpsap", "gpsap_dual_formula", "gpsap_trace_form",
                  "gpsap_vectorial", "load_perm", "load_subfield_fn", "mm",
                  "psap", "spread_labels", "trace_sum_nonconstant"),
    "decomp": ("DecompositionReport", "PlaneScan", "ScanRecord",
               "classify_decomposition", "concat4", "concat_bent_check",
               "partition_bent", "psffff", "restrict_to_cosets", "save_scan",
               "scan_decompositions"),
    "verify": ("CriterionResult", "run_criterion", "run_suite"),
}

_OWNER = {name: mod for mod, names in _PUBLIC.items() for name in names}
__all__ = list(_OWNER)


def _register(mod: str):
    spec = importlib.util.find_spec(f"{__name__}.{mod}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _mod in _PUBLIC:
    _module = _register(_mod)
    if _mod not in _OWNER:   # `bentfn.derivative` is the function
        globals()[_mod] = _module
del _mod, _module


def __getattr__(name: str):
    mod = _OWNER.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[f"{__name__}.{mod}"], name)
    globals()[name] = value   # later lookups find it without this call
    return value
