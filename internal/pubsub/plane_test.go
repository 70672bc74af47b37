package pubsub

import (
	"fmt"
	"testing"
)

// TestPublishLabelIsSprintf: a reliable publish's call label is the
// bytes the fmt form wrote, so the monitor records and trace goldens
// that name it do not move.
func TestPublishLabelIsSprintf(t *testing.T) {
	for _, s := range []Sample{
		{Topic: "telemetry", Pub: 2, Seq: 17},
		{Topic: "t", Pub: 0, Seq: 1},
		{Topic: "a.long-topic/name", Pub: 1 << 40, Seq: 1<<64 - 1},
	} {
		if got, want := publishLabel(s), fmt.Sprintf("pubsub.%s.p%d#%d", s.Topic, s.Pub, s.Seq); got != want {
			t.Errorf("publishLabel(%+v) = %q, want %q", s, got, want)
		}
	}
}
