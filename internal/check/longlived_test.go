package check

import (
	"errors"
	"strings"
	"testing"
)

// ev builds histories tersely in the tests below.
func ev(op LLOp, shard int, epoch uint64, slot int, sid, name int64) LLEvent {
	return LLEvent{Op: op, Shard: shard, Epoch: epoch, Slot: slot, Sid: sid, Name: name}
}

// goodHistory is a clean two-session history on one generation: both acquire,
// both release, the generation quiesces and is recycled, a successor opens.
func goodHistory() *LLRecord {
	return &LLRecord{Events: []LLEvent{
		ev(LLOpen, 0, 1, 0, 0, 0),
		ev(LLJoin, 0, 1, 0, 1, 0),
		ev(LLJoin, 0, 1, 1, 2, 0),
		ev(LLIssue, 0, 1, 0, 1, 0x11),
		ev(LLIssue, 0, 1, 1, 2, 0x12),
		ev(LLRelease, 0, 1, 0, 1, 0),
		ev(LLRelease, 0, 1, 1, 2, 0),
		ev(LLRecycle, 0, 1, 0, 0, 0),
		ev(LLOpen, 0, 2, 0, 0, 0),
		ev(LLJoin, 0, 2, 0, 3, 0),
		ev(LLIssue, 0, 2, 0, 3, 0x21),
		ev(LLRelease, 0, 2, 0, 3, 0),
	}}
}

func TestLLVerifierCleanHistory(t *testing.T) {
	if err := LLCheckAll(goodHistory()); err != nil {
		t.Fatalf("clean history rejected: %v", err)
	}
}

func TestLLVerifierCatchesViolations(t *testing.T) {
	cases := []struct {
		name   string
		want   string // the invariant the violation names
		events []LLEvent
	}{
		{
			name: "double-issue-same-name", want: "live-exclusive",
			events: []LLEvent{
				ev(LLOpen, 0, 1, 0, 0, 0),
				ev(LLJoin, 0, 1, 0, 1, 0),
				ev(LLJoin, 0, 1, 1, 2, 0),
				ev(LLIssue, 0, 1, 0, 1, 0x11),
				ev(LLIssue, 0, 1, 1, 2, 0x11), // same packed name, first still live
			},
		},
		{
			name: "recycle-under-live-name", want: "no-leak",
			events: []LLEvent{
				ev(LLOpen, 0, 1, 0, 0, 0),
				ev(LLJoin, 0, 1, 0, 1, 0),
				ev(LLIssue, 0, 1, 0, 1, 0x11),
				ev(LLRecycle, 0, 1, 0, 0, 0), // sid 1 still holds 0x11
			},
		},
		{
			name: "join-recycled-generation", want: "no-leak",
			events: []LLEvent{
				ev(LLOpen, 0, 1, 0, 0, 0),
				ev(LLRecycle, 0, 1, 0, 0, 0),
				ev(LLJoin, 0, 1, 0, 1, 0),
			},
		},
		{
			name: "epoch-regression", want: "epoch-monotone",
			events: []LLEvent{
				ev(LLOpen, 0, 2, 0, 0, 0),
				ev(LLOpen, 0, 2, 0, 0, 0), // not strictly increasing
			},
		},
		{
			name: "reclaim-released-session", want: "reclaim-once",
			events: []LLEvent{
				ev(LLOpen, 0, 1, 0, 0, 0),
				ev(LLJoin, 0, 1, 0, 1, 0),
				ev(LLIssue, 0, 1, 0, 1, 0x11),
				ev(LLRelease, 0, 1, 0, 1, 0),
				{Op: LLReclaim, Sid: 1, Held: true},
			},
		},
		{
			name: "double-reclaim", want: "reclaim-once",
			events: []LLEvent{
				ev(LLOpen, 0, 1, 0, 0, 0),
				ev(LLJoin, 0, 1, 0, 1, 0),
				ev(LLIssue, 0, 1, 0, 1, 0x11),
				{Op: LLReclaim, Sid: 1, Held: true},
				{Op: LLReclaim, Sid: 1, Held: true},
			},
		},
		{
			name: "release-without-name", want: "lifecycle",
			events: []LLEvent{
				ev(LLOpen, 0, 1, 0, 0, 0),
				ev(LLJoin, 0, 1, 0, 1, 0),
				ev(LLRelease, 0, 1, 0, 1, 0),
			},
		},
		{
			name: "issue-while-detached", want: "lifecycle",
			events: []LLEvent{
				ev(LLOpen, 0, 1, 0, 0, 0),
				ev(LLIssue, 0, 1, 0, 1, 0x11),
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := LLCheckAll(&LLRecord{Events: tc.events})
			if err == nil {
				t.Fatal("LLCheckAll missed the violation")
			}
			if inner := errors.Unwrap(err); inner == nil || !strings.HasPrefix(inner.Error(), tc.want+":") {
				t.Fatalf("LLCheckAll reported %q, want a wrapped %q violation", err, tc.want)
			}
		})
	}
}

func TestLLVerifierLiveNames(t *testing.T) {
	var v LLVerifier
	must := func(e LLEvent) {
		t.Helper()
		if err := v.Apply(e); err != nil {
			t.Fatalf("apply %s: %v", e, err)
		}
	}
	must(ev(LLOpen, 0, 1, 0, 0, 0))
	must(ev(LLJoin, 0, 1, 0, 1, 0))
	must(ev(LLJoin, 0, 1, 1, 2, 0))
	must(ev(LLIssue, 0, 1, 0, 1, 0x11))
	must(ev(LLIssue, 0, 1, 1, 2, 0x12))
	if got := v.LiveNames(); got != 2 {
		t.Fatalf("LiveNames = %d, want 2", got)
	}
	must(ev(LLRelease, 0, 1, 0, 1, 0))
	must(LLEvent{Op: LLReclaim, Sid: 2, Held: true})
	if got := v.LiveNames(); got != 0 {
		t.Fatalf("LiveNames after release+reclaim = %d, want 0", got)
	}
}
