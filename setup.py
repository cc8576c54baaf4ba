"""Legacy shim: this environment's setuptools lacks the `wheel` package, so
PEP 517 editable installs fail; `pip install -e .` falls back to this.

The package is pure Python plus one optional C source
(``src/repro/core/_native/kernel.c``) that is *not* compiled at install
time: :mod:`repro.core._native` builds it on first use with whatever C
toolchain the host has, and the engine layer falls back to the pure-Python
object engine when none exists.  The source must therefore ship as package
data (see also MANIFEST.in for sdists).
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    package_data={"repro.core._native": ["*.c", "*.h"]},
    include_package_data=True,
)
