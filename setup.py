"""Build hook: compile the optional C++ kernel.

The package works without the extension (the pure kernel is always
installed), so a failed compile leaves a pure-Python install.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "rsys._kernel_c",
            sources=["src/rsys/_kernel_c.cpp"],
            language="c++",
            extra_compile_args=["-O3", "-std=c++17"],
            optional=True,
        )
    ]
)
