"""Setup shim for environments without PEP 517 editable-install support."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "A from-scratch Python reproduction of Clipper: A Low-Latency Online "
        "Prediction Serving System (NSDI 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    # scipy is only the reference the quantile-regression fit is tested against.
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis", "scipy"]},
)
