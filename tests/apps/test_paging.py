"""The scrollable-cursor (paging) application."""

import pytest

from repro.apps import paging
from repro.apps.site import build_site
from repro.sql.querycache import QueryResultCache


@pytest.fixture(scope="module")
def site_and_app():
    app = paging.install(rows=25)  # page size 10 -> pages of 10/10/5
    return build_site(app.engine, app.library), app


@pytest.fixture()
def browser(site_and_app):
    site, _ = site_and_app
    return site.new_browser()


def list_items(page) -> int:
    return page.html.count("<LI>")


class TestPaging:
    def test_first_page_window(self, browser, site_and_app):
        _, app = site_and_app
        page = browser.get(app.report_path + "?q=")
        assert list_items(page) == 10
        assert "#1 " in page.html
        assert "#10 " in page.html
        assert "#11 " not in page.html
        assert "of\n25 total matches" in page.html or \
            "of 25 total matches" in page.html.replace("\n", " ")

    def test_first_page_has_next_but_no_previous(self, browser,
                                                 site_and_app):
        _, app = site_and_app
        page = browser.get(app.report_path + "?q=")
        texts = [l.text for l in page.links]
        assert "Next page" in texts
        assert "Previous page" not in texts

    def test_middle_page_has_both_links(self, browser, site_and_app):
        _, app = site_and_app
        browser.get(app.report_path + "?q=")
        middle = browser.follow("Next page")
        texts = [l.text for l in middle.links]
        assert "Next page" in texts and "Previous page" in texts
        assert "#11 " in middle.html and "#20 " in middle.html

    def test_last_page_is_short_and_has_no_next(self, browser,
                                                site_and_app):
        _, app = site_and_app
        browser.get(app.report_path + "?q=")
        browser.follow("Next page")
        last = browser.follow("Next page")
        assert list_items(last) == 5
        texts = [l.text for l in last.links]
        assert "Next page" not in texts
        assert "Previous page" in texts

    def test_previous_returns_to_same_window(self, browser,
                                             site_and_app):
        _, app = site_and_app
        first = browser.get(app.report_path + "?q=")
        second = browser.follow("Next page")
        back = browser.follow("Previous page")
        assert back.html == first.html

    def test_state_travels_in_the_url(self, browser, site_and_app):
        # "relating multiple client-server interactions ... as part of
        # the same application": the gateway is stateless; the page
        # carries START_ROW_NUM forward.
        _, app = site_and_app
        page = browser.get(app.report_path + "?q=")
        next_link = page.link("Next page")
        assert "START_ROW_NUM=11" in next_link.href
        assert "q=" in next_link.href  # the search term travels too

    def test_direct_jump_to_offset(self, browser, site_and_app):
        _, app = site_and_app
        page = browser.get(app.report_path + "?q=&START_ROW_NUM=21")
        assert "#21 " in page.html
        assert list_items(page) == 5

    def test_search_term_constrains_and_pages(self, browser,
                                              site_and_app):
        _, app = site_and_app
        page = browser.get(app.report_path + "?q=Ibm")
        assert 0 < list_items(page) <= 10


def test_a_cached_walk_pages_as_an_uncached_one():
    """Next, Next, Previous, Previous: the window moves over one cached
    statement (and its result's row memo), and each page is the one an
    engine without a query cache renders."""
    walks = []
    for cache in (None, QueryResultCache()):
        app = paging.install(rows=25)
        app.engine.config.query_cache = cache
        browser = build_site(app.engine, app.library).new_browser()
        pages = [browser.get(app.report_path + "?q=")]
        for link in ("Next page", "Next page", "Previous page",
                     "Previous page"):
            pages.append(browser.follow(link))
        walks.append([page.html for page in pages])
    assert walks[0] == walks[1]
    assert len(set(walks[1])) == 3
    assert cache.stats()["hits"] == 4


class TestExecRunnerCommands:
    def test_page_next_arithmetic(self):
        runner = paging.paging_exec_runner()
        assert runner.run("page_next 1 10 25") == ("11", "")
        assert runner.run("page_next 21 10 25") == ("", "")
        assert runner.run("page_next 11 10 25") == ("21", "")

    def test_page_prev_arithmetic(self):
        runner = paging.paging_exec_runner()
        assert runner.run("page_prev 1 10") == ("", "")
        assert runner.run("page_prev 11 10") == ("1", "")
        assert runner.run("page_prev 6 10") == ("1", "")  # clamped

    def test_bad_arguments_become_error_code(self):
        runner = paging.paging_exec_runner()
        output, error = runner.run("page_next one two three")
        assert output == ""
        assert error.startswith("ValueError")
