package store

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// goldenWAL is the WAL file a fixed op sequence produced before the
// mutation paths were folded into one commit path. Single ops keep the
// single-record framing, batches the batch frame, a delete of an absent
// key writes nothing: the encoding is frozen byte for byte (replicas and
// restarts read logs written by earlier builds).
const goldenWAL = "" +
	"0d0000003336c3e1010100000061030000006f6e65" +
	"0d000000473dea040101000000620300000074776f" +
	"06000000d678dffb020100000061" +
	"0f000000adec8703010100000063050000007468726565" +
	"31000000d4e0e26a030400000001010000006404000000666f75720101000000650400000066697665020100000062020500000067686f7374" +
	"15000000ea1b6e880101000000630b00000074687265652d616761696e" +
	"0f00000078756ab5030100000001010000006600000000"

func TestWALGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.wal")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Put("a", []byte("one")))
	must(s.Put("b", []byte("two")))
	must(s.Delete("a"))
	must(s.Delete("never-there")) // absent key: no record
	c, err := s.StagePut("c", []byte("three"))
	must(err)
	must(c.Wait())
	var b Batch
	b.Put("d", []byte("four"))
	b.PutOwned("e", []byte("five"))
	b.Delete("b")
	b.Delete("ghost") // batch deletes are framed even when absent
	must(s.Apply(&b))
	must(s.Put("c", []byte("three-again")))
	b.Reset()
	b.Put("f", nil)
	c, err = s.StageApply(&b)
	must(err)
	must(c.Wait())
	must(s.Close())

	got, err := os.ReadFile(path)
	must(err)
	if hex.EncodeToString(got) != goldenWAL {
		t.Fatalf("WAL bytes changed:\n got %s\nwant %s", hex.EncodeToString(got), goldenWAL)
	}
	// And the golden file replays to the state the ops left behind.
	s, err = Open(path, Options{})
	must(err)
	defer s.Close()
	want := map[string]string{"c": "three-again", "d": "four", "e": "five", "f": ""}
	if n, _ := s.Len(); n != len(want) {
		t.Errorf("replayed %d keys, want %d", n, len(want))
	}
	for k, v := range want {
		if got, ok, _ := s.Get(k); !ok || string(got) != v {
			t.Errorf("replayed %s = %q (present %v), want %q", k, got, ok, v)
		}
	}
}
