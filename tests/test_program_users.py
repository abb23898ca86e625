"""Everything in ``src/`` has a program user (ROADMAP 9).

A program user is a file under ``src/``, ``benchmarks/``, ``examples/``
or ``tools/``, a code block in README.md, or a docstring example in
``src/``; tests do not count (``tests/support/census.py`` says how each
census matches).  A definition or a package re-export with no program
user fails here unless it is allowlisted below with its reason.  A
reader only tests need belongs in ``tests/support/readers.py``.
"""

from tests.support import census

#: ``path:qualname`` -> why it stays without a program user.
DEFINITIONS_WITHOUT_USER = {
    "src/repro/analysis/comparison.py:total_variation_distance": (
        "analysis/comparison.py is kept for ROADMAP 13(b), which scores "
        "planted against recovered distributions with it"
    ),
    "src/repro/analysis/comparison.py:relative_error": (
        "analysis/comparison.py is kept for ROADMAP 13(b)"
    ),
    "src/repro/analysis/comparison.py:chi_square_statistic": (
        "analysis/comparison.py is kept for ROADMAP 13(b)"
    ),
    "src/repro/scope/storage.py:verify_database": (
        "the only integrity check that reports a truncated or overwritten "
        "file instead of raising (ROADMAP 9)"
    ),
}


def _key(definition: census.Definition) -> str:
    return f"{definition.path}:{definition.qualname}"


def test_every_definition_has_a_program_user():
    unexplained = [
        f"{d.path}:{d.start} {d.qualname} ({d.lines} lines)"
        for d in census.unused_definitions()
        if _key(d) not in DEFINITIONS_WITHOUT_USER
    ]
    assert unexplained == [], (
        "no program user: give each one a user, move it to "
        "tests/support/readers.py, or allowlist it with its reason"
    )


def test_every_allowlisted_definition_exists_and_is_unused():
    unused = {_key(d) for d in census.unused_definitions()}
    assert sorted(set(DEFINITIONS_WITHOUT_USER) - unused) == []


def test_every_allowlist_row_names_its_reason():
    assert all(reason.strip() for reason in DEFINITIONS_WITHOUT_USER.values())


def test_every_reexport_is_imported_through_its_package():
    assert census.unimported_reexports() == []


def test_a_package_imports_only_what_it_reexports_or_reads():
    assert census.init_imports_outside_all() == []


def test_a_function_of_the_same_name_is_no_user_of_a_method():
    """``examples/probe_real_server.py`` defines and calls ``reachable()``;
    a word match took that for a user of ``icmp.PingResult.reachable``."""
    assert "reachable" in census._index().names
    method = census.Definition("src/repro/net/icmp.py", "PingResult.reachable", 0, 0)
    assert not census.is_used(method)
