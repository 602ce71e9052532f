package httpproxy

import (
	"strconv"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

// The farm's edge parsers read client- and peer-controlled strings: the
// request path and the X-Adc-* headers. None may panic, and none may turn
// a malformed value into something other than a clean rejection.

func FuzzParseObjectPath(f *testing.F) {
	for _, s := range []string{
		"/obj/42", "/obj/0", "/obj/+1", "/obj/-1", "/obj/", "", "/obj",
		"/obj/18446744073709551615", "/obj/18446744073709551616", "/obj/007", "/obj/1/2",
	} {
		f.Add(s, uint64(42))
	}
	f.Fuzz(func(t *testing.T, path string, id uint64) {
		if obj, err := parseObjectPath(path); err == nil {
			if got, err := parseObjectPath(ObjectURL("", obj)); err != nil || got != obj {
				t.Fatalf("%q parsed to %v, which re-parses to %v, %v", path, obj, got, err)
			}
		}
		want := ids.ObjectID(id)
		if got, err := parseObjectPath(ObjectURL("", want)); err != nil || got != want {
			t.Fatalf("ObjectURL(%v) parsed to %v, %v", want, got, err)
		}
	})
}

func FuzzParseNodeID(f *testing.F) {
	for _, s := range []string{
		"Proxy[3]", "Proxy[0]", "Proxy[+1]", "Proxy[-1]", "Proxy[]", "", "Proxy[",
		"Proxy[2147483647]", "Proxy[2147483648]", "Origin", "None", "Client[0]", "Proxy[07]",
	} {
		f.Add(s, int32(3))
	}
	f.Fuzz(func(t *testing.T, s string, id int32) {
		if n := parseNodeID(s); n != ids.None {
			if !n.IsProxy() || parseNodeID(n.String()) != n {
				t.Fatalf("%q parsed to %v, not a round-tripping proxy ID", s, n)
			}
		}
		if n := ids.NodeID(id); n.IsProxy() && parseNodeID(n.String()) != n {
			t.Fatalf("parseNodeID(%q) = %v, want %v", n.String(), parseNodeID(n.String()), n)
		}
	})
}

func FuzzParseForwards(f *testing.F) {
	for _, s := range []string{
		"", "0", "3", "+1", "-1", " 1", "1.5",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := parseForwards(s)
		if n < 0 {
			t.Fatalf("parseForwards(%q) = %d, negative", s, n)
		}
		if err == nil && s != "" {
			if back, err := parseForwards(strconv.Itoa(n)); err != nil || back != n {
				t.Fatalf("%q parsed to %d, which re-parses to %d, %v", s, n, back, err)
			}
		}
	})
}
