"""Setuptools entry point.

This file is the package's only metadata (there is no pyproject.toml).  It
stays a plain setuptools script so that editable installs work on
environments whose setuptools predates full PEP 660 support (no `wheel`
package available offline).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Dotted Version Vectors: efficient causality tracking for distributed "
        "storage systems (PODC 2012 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    entry_points={"console_scripts": ["repro-dvv=repro.cli:main"]},
)
