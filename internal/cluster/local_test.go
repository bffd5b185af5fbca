package cluster

import (
	"reflect"
	"testing"
)

// TestParseAddrs pins the one address grammar of -ps-addrs and -ps-serve:
// ',' between shards, '|' between the replicas of a shard, spaces trimmed,
// empty groups dropped.
func TestParseAddrs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want [][]string
	}{
		{"", nil},
		{" , ,| ", nil},
		{"a:1", [][]string{{"a:1"}}},
		{"a:1,b:2", [][]string{{"a:1"}, {"b:2"}}},
		{" a:1 , b:2 ", [][]string{{"a:1"}, {"b:2"}}},
		{"a0|a1,b0|b1", [][]string{{"a0", "a1"}, {"b0", "b1"}}},
		{"a0 | a1 ,, b0|", [][]string{{"a0", "a1"}, {"b0"}}},
		{"|a1,b0", [][]string{{"a1"}, {"b0"}}},
	} {
		if got := ParseAddrs(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseAddrs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
