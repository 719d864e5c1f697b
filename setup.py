"""Setuptools shim.

The primary build configuration lives in ``pyproject.toml``; this file exists
so the package can also be installed in environments whose setuptools/pip
combination cannot build PEP-660 editable wheels offline
(``python setup.py develop`` or ``pip install -e . --no-build-isolation``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
