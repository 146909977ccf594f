package history

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"correctables/internal/core"
)

// fmtLine is the fmt-based renderer Op.String replaced: the reference the
// append serializer must match byte for byte.
func fmtLine(o *Op) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d %s(%s) [%v,", o.Client, o.ID, o.Name, o.Key, o.Start)
	if o.Done {
		fmt.Fprintf(&b, "%v]", o.End)
	} else {
		b.WriteString("...]")
	}
	for _, v := range o.Views {
		fmt.Fprintf(&b, " %v:v%d@%v", v.Level, v.Version, v.At)
		if v.Note != "" {
			fmt.Fprintf(&b, "=%s", v.Note)
		}
		if v.Final {
			b.WriteString("!")
		}
	}
	if o.Err != "" {
		fmt.Fprintf(&b, " err=%q", o.Err)
	}
	return b.String()
}

// FuzzOpSerialize checks Op.String and SerializeOps against fmtLine over
// arbitrary durations, levels, versions and strings.
func FuzzOpSerialize(f *testing.F) {
	durations := []int64{
		0, 1, -1, 999, int64(time.Microsecond), int64(1500 * time.Nanosecond),
		-int64(999 * time.Microsecond), int64(3 * time.Millisecond), int64(time.Second),
		int64(61*time.Minute + 500*time.Millisecond), -int64(2 * time.Hour),
		math.MaxInt64, math.MinInt64,
	}
	levels := []int{int(core.LevelNone), int(core.LevelCache), int(core.LevelWeak),
		int(core.LevelCausal), int(core.LevelStrong), 99, -7, math.MinInt64}
	errs := []string{"", "unreachable", `say "hi"`, "line\nbreak\ttab", "nul\x00byte",
		"héllo µs 日本", "bad utf8 \xff\xfe", " \U0001F600"}
	for i, d := range durations {
		f.Add(uint64(i), "c"+fmt.Sprint(i), "get", "k", d, durations[(i+3)%len(durations)], i%2 == 0,
			levels[i%len(levels)], uint64(math.MaxUint64-uint64(i)), durations[(i+5)%len(durations)],
			errs[i%len(errs)], i%3 == 0, errs[(i+1)%len(errs)])
	}
	f.Fuzz(func(t *testing.T, id uint64, client, name string, key string, start, end int64, done bool,
		level int, version uint64, at int64, note string, final bool, errText string) {
		o := Op{
			ID: id, Client: client, Name: name, Key: key,
			Start: time.Duration(start), End: time.Duration(end), Done: done, Err: errText,
			Views: []View{
				{Level: core.Level(level), Version: version, At: time.Duration(at), Note: note},
				{Level: core.LevelStrong, Final: final, Version: version / 3, At: time.Duration(end)},
			},
		}
		want := fmtLine(&o)
		if got := o.String(); got != want {
			t.Fatalf("String:\n got %q\nwant %q", got, want)
		}
		if len(want) > o.maxLineLen() {
			t.Fatalf("line of %d bytes exceeds maxLineLen %d: %q", len(want), o.maxLineLen(), want)
		}
		other := Op{Client: key, Name: "put", Start: time.Duration(at)}
		ops := []Op{o, other}
		if got, want := string(SerializeOps(ops)), want+"\n"+fmtLine(&other)+"\n"; got != want {
			t.Fatalf("SerializeOps:\n got %q\nwant %q", got, want)
		}
	})
}
