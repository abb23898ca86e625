"""SETTINGS book-keeping (RFC 7540 §6.5)."""

import pytest

from repro.h2.constants import (
    DEFAULT_MAX_FRAME_SIZE,
    MAX_ALLOWED_FRAME_SIZE,
    MAX_WINDOW_SIZE,
    SETTING_DEFAULTS,
    ErrorCode,
    SettingCode,
)
from repro.h2.errors import FlowControlError, ProtocolError
from repro.h2.settings import SettingsMap, validate_setting
from tests.support.readers import initial_window_size


class TestDefaults:
    def test_rfc_defaults(self):
        settings = SettingsMap()
        assert settings.header_table_size == 4096
        assert settings.enable_push is True
        assert settings.max_concurrent_streams is None  # unlimited
        assert initial_window_size(settings) == 65_535
        assert settings.max_frame_size == 16_384
        assert settings.max_header_list_size is None  # unlimited

    def test_announced_is_none_for_defaults(self):
        settings = SettingsMap()
        assert settings.announced(SettingCode.INITIAL_WINDOW_SIZE) is None

    def test_explicit_overrides_default(self):
        settings = SettingsMap({int(SettingCode.INITIAL_WINDOW_SIZE): 0})
        assert initial_window_size(settings) == 0
        assert settings.announced(SettingCode.INITIAL_WINDOW_SIZE) == 0

    def test_unknown_identifier_returns_none(self):
        settings = SettingsMap()
        assert settings.get(0xBEEF) is None
        settings.set(0xBEEF, 7)
        assert settings.get(0xBEEF) == 7


class TestValidation:
    def test_enable_push_must_be_boolean(self):
        with pytest.raises(ProtocolError):
            validate_setting(int(SettingCode.ENABLE_PUSH), 2)

    def test_initial_window_size_bounded(self):
        with pytest.raises(FlowControlError):
            validate_setting(int(SettingCode.INITIAL_WINDOW_SIZE), 2**31)
        validate_setting(int(SettingCode.INITIAL_WINDOW_SIZE), 2**31 - 1)

    @pytest.mark.parametrize("value", [16_383, 2**24])
    def test_max_frame_size_bounds(self, value):
        with pytest.raises(ProtocolError):
            validate_setting(int(SettingCode.MAX_FRAME_SIZE), value)

    @pytest.mark.parametrize("value", [16_384, 65_536, 2**24 - 1])
    def test_max_frame_size_legal_values(self, value):
        validate_setting(int(SettingCode.MAX_FRAME_SIZE), value)

    def test_unknown_identifiers_never_fail_validation(self):
        validate_setting(0xFFFF, 2**32 - 1)

    def test_set_without_validation_accepts_anything(self):
        settings = SettingsMap()
        settings.set(int(SettingCode.ENABLE_PUSH), 7, validate=False)
        assert settings.get(SettingCode.ENABLE_PUSH) == 7

    def test_as_dict_round_trips(self):
        initial = {int(SettingCode.MAX_CONCURRENT_STREAMS): 100}
        assert SettingsMap(initial).as_dict() == initial


# -- int lookups against the enum version they replaced (ISSUE 16) ---------


def enum_validate_setting(identifier, value):
    """``validate_setting`` as it was: ``SettingCode(identifier)`` under
    ``try/except``, then identity tests on the member."""
    try:
        code = SettingCode(identifier)
    except ValueError:
        return
    if code is SettingCode.ENABLE_PUSH and value not in (0, 1):
        raise ProtocolError(f"SETTINGS_ENABLE_PUSH must be 0 or 1, got {value}")
    if code is SettingCode.INITIAL_WINDOW_SIZE and value > MAX_WINDOW_SIZE:
        raise FlowControlError(
            f"SETTINGS_INITIAL_WINDOW_SIZE {value} exceeds 2^31-1",
            error_code=ErrorCode.FLOW_CONTROL_ERROR,
        )
    if code is SettingCode.MAX_FRAME_SIZE and not (
        DEFAULT_MAX_FRAME_SIZE <= value <= MAX_ALLOWED_FRAME_SIZE
    ):
        raise ProtocolError(f"SETTINGS_MAX_FRAME_SIZE {value} outside [2^14, 2^24-1]")


def enum_get(explicit, identifier):
    """``SettingsMap.get`` as it was."""
    identifier = int(identifier)
    if identifier in explicit:
        return explicit[identifier]
    try:
        return SETTING_DEFAULTS[SettingCode(identifier)]
    except (ValueError, KeyError):
        return None


def outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except (ProtocolError, FlowControlError) as exc:
        return (type(exc), str(exc), exc.error_code)


IDENTIFIERS = [*range(0x11), 0xFFFF]
VALUES = [0, 1, 2, 100, 16_383, 16_384, 65_535, 2**24 - 1, 2**24, 2**31 - 1, 2**31, 2**32 - 1]


class TestIntLookupsAgreeWithTheEnumVersion:
    @pytest.mark.parametrize("identifier", IDENTIFIERS)
    def test_validate_setting(self, identifier):
        for value in VALUES:
            assert outcome(validate_setting, identifier, value) == outcome(
                enum_validate_setting, identifier, value
            ), (identifier, value)

    @pytest.mark.parametrize("identifier", IDENTIFIERS)
    def test_get_default_and_explicit(self, identifier):
        assert SettingsMap().get(identifier) == enum_get({}, identifier)
        announced = SettingsMap()
        announced.set(identifier, 1, validate=False)
        assert announced.get(identifier) == enum_get({identifier: 1}, identifier) == 1

    def test_members_and_plain_ints_are_the_same_key(self):
        settings = SettingsMap({SettingCode.MAX_FRAME_SIZE: 20_000, 4: 7})
        assert settings.get(5) == settings.get(SettingCode.MAX_FRAME_SIZE) == 20_000
        assert settings.max_frame_size == 20_000
        assert settings.get(SettingCode.INITIAL_WINDOW_SIZE) == initial_window_size(settings) == 7
