// Package testsupport holds what only tests link: the seeded fault
// injection the chaos suites drive (an http.RoundTripper, a flaky
// dialer, a partitioning dialer) and reference pieces that tests of
// several packages compare the shipped code against. No shipped main
// imports it; `make lint-reach` fails a non-test file that does, and
// `make loc` counts it apart from the total.
package testsupport
