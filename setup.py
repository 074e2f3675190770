"""Legacy setup shim for offline editable installs (no wheel available)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Terminating distributed construction of shapes and patterns in a "
        "fair solution of automata (Michail 2015) - full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    # numpy backs the candidate store (repro.core.columnar).
    install_requires=["numpy"],
)
