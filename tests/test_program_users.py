"""Everything in ``src/`` has a program user (ROADMAP 9).

A program user is a file under ``src/``, ``benchmarks/``, ``examples/``
or ``tools/``, a code block in README.md, or a docstring example in
``src/``; tests do not count (``tests/support/census.py`` says how each
census matches).  A definition or a package re-export with no program
user fails here unless it is allowlisted below with its reason, and so
does a defaulted parameter or dataclass field that no program call sets.
A reader only tests need belongs in ``tests/support/readers.py``.
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


#: ``path owner(name=)`` -> why it stays although no program call sets it.
#: Any other value no program sets is a constant (DESIGN §8).
VALUES_WITHOUT_SETTER = {
    **{
        f"src/repro/scope/live.py {owner}({name}=)": (
            "test clock seam: the rate-limit tests run it on a fake clock"
        )
        for owner in ("TokenBucket", "SiteGate")
        for name in ("clock", "sleep")
    },
    **{
        f"src/repro/h2/hpack/encoder.py Encoder({name}=)": (
            "the RFC 7541 Appendix C vectors encode with a 256-octet table, "
            "with and without Huffman coding"
        )
        for name in ("header_table_size", "use_huffman")
    },
    "src/repro/scope/live.py LiveConfig(connect_timeout=)": (
        "the live fleet tests bound a blackholed connect at 1 s with it"
    ),
    "src/repro/h2/hpack/decoder.py Decoder(max_header_list_size=)": (
        "ROADMAP 21 wires it to bound what a hostile server can make the "
        "scanner decode"
    ),
    **{
        f"src/repro/servers/fleet.py FleetPlan({name}=)": (
            "the planted-fault counts of the live fault tests' only fleet"
        )
        for name in ("refuse", "stall", "blackhole", "unresolvable")
    },
    **{
        f"src/repro/scope/concurrent.py scan_interleaved({name}=)": (
            "ROADMAP 3 deletes the interleaved scheduler"
        )
        for name in ("concurrency", "metrics", "grant_policy")
    },
    **{
        f"src/repro/scope/client.py ScopeClient.upgrade_h2c({name}=)": (
            "ROADMAP 17(e) deletes the cleartext entry"
        )
        for name in ("path", "timeout")
    },
}


def _key(definition: census.Definition) -> str:
    return f"{definition.path}:{definition.qualname}"


def _value_key(value: census.Settable) -> str:
    return f"{value.path} {value.owner}({value.name}=)"


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


def test_every_settable_value_has_a_program_setter():
    unexplained = [
        _value_key(v)
        for v in census.unset_values()
        if _value_key(v) not in VALUES_WITHOUT_SETTER
    ]
    assert unexplained == [], (
        "set by no program call: make it a constant, give it a setter, "
        "or allowlist it with its reason"
    )


def test_every_allowlisted_value_exists_and_is_unset():
    unset = {_value_key(v) for v in census.unset_values()}
    assert sorted(set(VALUES_WITHOUT_SETTER) - unset) == []
    assert all(reason.strip() for reason in VALUES_WITHOUT_SETTER.values())


def test_a_filled_field_is_state_not_an_option():
    """A record's field the program fills (``.append``, item assignment,
    ``setattr``, an alias, in place by the function it is handed to, or
    by the function its name is handed to) is not an option; an option
    only tests set stays unset."""
    unset = {_value_key(v) for v in census.unset_values()}
    for filled in (
        "src/repro/scope/report.py SiteReport(errors=)",
        "src/repro/scope/report.py SiteReport(push=)",
        "src/repro/scope/report.py SiteReport(ping=)",
        "src/repro/scope/report.py ErrorTaxonomy(by_class=)",
        "src/repro/attacks/base.py AttackResult(peak_pinned_bytes=)",
        "src/repro/analysis/pageload.py PageLoadStats(with_push=)",
    ):
        assert filled not in unset, filled
    assert "src/repro/servers/fleet.py FleetPlan(refuse=)" in unset


def test_a_store_on_self_sets_only_its_own_classes_fields():
    """``SocketBackend``'s ``self.connect_timeout`` sets no field of
    ``LiveConfig``; ``DataFrame``'s ``self.flags`` sets the ``flags`` it
    inherits from ``Frame``."""
    unset = {_value_key(v) for v in census.unset_values()}
    assert "src/repro/scope/live.py LiveConfig(connect_timeout=)" in unset
    assert "src/repro/h2/frames.py Frame(flags=)" not in unset


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
