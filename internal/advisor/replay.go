package advisor

import (
	"fmt"
	"slices"
)

// ReplayStep is one recorded step of a session's history: either an
// applied event, or an "advised" marker recording a decision point at
// which the policy was consulted. The distinction matters because some
// policies (DPNextFailure, Liu) advance internal state in NextChunk, so
// a faithful replay must consult them at the recorded points that their
// ChunkState declaration leaves relevant, and at no other point.
type ReplayStep struct {
	// Advised marks a decision point; Event is ignored when set.
	Advised bool
	// Event is the applied event for non-marker steps.
	Event Event
}

// ReplaySession mints a session and re-applies a recorded history. It
// consults the policy only at the markers its ChunkState declaration
// makes relevant:
//
//   - every marker, for a policy that declares nothing;
//   - the markers after the last recovered event, for
//     ChunkStateUntilFailure;
//   - for ChunkStateNone, the markers after the last checkpointed or
//     recovered event, and when there is none, one consult right after
//     that event. That is where the service consults such a policy
//     without journaling it (see ConsultNeedsMarker), and it restores
//     the standing decision and the zeroing of leftover work that
//     Advise performs once a session is done.
//
// By the replay-equivalence property (see the equivalence test suite),
// the returned session is bit-identical — same state, same standing
// decision, same next decisions — to the session that recorded the
// steps. A step that fails to re-apply indicates a corrupt or
// out-of-order log and is reported with its index.
func (a *Advisor) ReplaySession(history []PastFailure, steps []ReplayStep) (*Session, error) {
	s, err := a.NewSession(history...)
	if err != nil {
		return nil, err
	}
	from := s.firstConsult(steps)
	if err := s.replay(steps[:from], 0, false); err != nil {
		return nil, err
	}
	marked := slices.ContainsFunc(steps[from:], func(st ReplayStep) bool { return st.Advised })
	if s.chunkState == ChunkStateNone && !marked {
		// The platform is up after a commit or a recovery, and at the start.
		if _, err := s.Advise(); err != nil {
			return nil, fmt.Errorf("advisor: replay step %d (implied consult): %w", from, err)
		}
	}
	if err := s.replay(steps[from:], from, true); err != nil {
		return nil, err
	}
	return s, nil
}

// replay applies steps, which start at index first of the history,
// consulting the policy at their markers when consult is set and
// skipping them otherwise.
func (s *Session) replay(steps []ReplayStep, first int, consult bool) error {
	for i, st := range steps {
		if st.Advised {
			if !consult {
				continue
			}
			if _, err := s.Advise(); err != nil {
				return fmt.Errorf("advisor: replay step %d (advised): %w", first+i, err)
			}
			continue
		}
		if err := s.Observe(st.Event); err != nil {
			return fmt.Errorf("advisor: replay step %d (%s event): %w", first+i, st.Event.Kind, err)
		}
	}
	return nil
}

// firstConsult returns the index of the first step whose advised marker
// a replay consults: the step after the last event that discards what
// earlier consults left behind.
func (s *Session) firstConsult(steps []ReplayStep) int {
	if s.chunkState == ChunkStateKept {
		return 0
	}
	for i := len(steps) - 1; i >= 0; i-- {
		if st := steps[i]; !st.Advised && (st.Event.Kind == EventRecovered ||
			st.Event.Kind == EventCheckpointed && s.chunkState == ChunkStateNone) {
			return i + 1
		}
	}
	return 0
}

// HasDecision reports whether a decision is currently cached — i.e. the
// policy has been consulted since the last schedule-changing event.
func (s *Session) HasDecision() bool { return s.hasDecision }

// ConsultNeedsMarker reports whether a journal of this session must
// record the fresh consult about to happen as an "advised" marker, for
// ReplaySession to consult the policy at the same point. It is true for
// every policy but one that declares ChunkStateNone. Such a policy
// needs a marker only when a progress event came after the last commit
// or recovery: replay consults it right after that event otherwise, and
// the decision's Now would show the difference.
func (s *Session) ConsultNeedsMarker() bool {
	return s.chunkState != ChunkStateNone || s.progressed
}
