package monitor

import (
	"testing"

	"hades/internal/vtime"
)

// BenchmarkRecordf times one kept Recordf in the shape the record sites
// have: five recurring subjects and "from=n%d id=%d lat=%s"-like
// formats, into a window that opens afresh every 1<<16 records so a
// long run does not hold what it records.
func BenchmarkRecordf(b *testing.B) {
	const window = 1 << 16
	subjects := [...]string{"shard0.req", "shard1.req", "heug.prec", "t7#3", "kv-client/n2"}
	var l *Log
	b.ReportAllocs()
	for i := range b.N {
		if i%window == 0 {
			l = NewLog(window)
		}
		subject, at := subjects[i%len(subjects)], vtime.Time(i)*vtime.Time(vtime.Microsecond)
		switch i % 3 {
		case 0:
			l.Recordf(at, KindMessageRecv, i%4, subject, "from=n%d id=%d lat=%s", i%4, i, vtime.Duration(i%5000)*vtime.Microsecond)
		case 1:
			l.Recordf(at, KindMessageSend, i%4, subject, "to=n%d id=%d", (i+1)%4, i)
		default:
			l.Recordf(at, KindTaskComplete, i%4, subject, "resp=%s", vtime.Duration(i%977)*vtime.Microsecond)
		}
	}
}
