"""Command line: print the package's JSON for one algebra descriptor.

    minwsuper algebra 'spo:2|3'      structure constants and form
    minwsuper grading 'spo:2|3'      the minimal grading
    minwsuper relations 'spo:2|3'    the relation report; exit 1 unless ok
    minwsuper cartan 'spo:2|3'       the Cartan subquotient presentation

Bad input exits 2 (unsupported family) or 3 (failed precondition), and a
failed internal cross-check exits 4, each with its message on stderr.
"""

import json

import click

from .cartanw import build_cartan_w
from .errors import ConsistencyError, PreconditionError, UnsupportedFamilyError
from .grading import grade
from .superalgebra import build_algebra
from .wgen import verify_relations

EXIT_CODES = {
    UnsupportedFamilyError: 2,
    PreconditionError: 3,
    ConsistencyError: 4,
}


class _Cli(click.Group):
    """Maps the package's error types onto their exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            click.echo("error: %s" % exc, err=True)
            ctx.exit(next(code for kind, code in EXIT_CODES.items()
                          if isinstance(exc, kind)))


def _echo(data):
    click.echo(json.dumps(data, indent=2))


def _graded(descriptor):
    return grade(build_algebra(descriptor))


@click.group(cls=_Cli)
def main():
    """Exact minimal W-superalgebras of basic Lie superalgebras."""


@main.command()
@click.argument("descriptor")
def algebra(descriptor):
    """Basis, brackets and invariant form of DESCRIPTOR."""
    _echo(build_algebra(descriptor).to_json_dict())


@main.command()
@click.argument("descriptor")
def grading(descriptor):
    """The short grading of the minimal root of DESCRIPTOR."""
    _echo(_graded(descriptor).to_json_dict())


@main.command()
@click.argument("descriptor")
@click.pass_context
def relations(ctx, descriptor):
    """The certified relation report of DESCRIPTOR's W-superalgebra."""
    report = verify_relations(_graded(descriptor))
    _echo(report)
    if not report["ok"]:
        ctx.exit(1)


@main.command()
@click.argument("descriptor")
def cartan(descriptor):
    """The Cartan subquotient presentation and the images of pi."""
    _echo(build_cartan_w(_graded(descriptor)).as_json_dict())


if __name__ == "__main__":
    main(prog_name="minwsuper")
