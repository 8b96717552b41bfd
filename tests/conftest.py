import pytest


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is not None:
        verdict = "PASS" if rep.passed else "FAIL"
        print(f"\nACCEPTANCE CRITERION {marker.args[0]}: {verdict}")
