// Package pgtable manages two-level page-table trees in simulated
// physical memory. It is shared by the guest kernel (which builds address
// spaces) and the VMM (which validates and pins the same trees in direct
// paging mode, §3.2.2). The package never decides *how* an entry store is
// performed — callers supply a WriteFn, which the guest binds to its
// current virtualization object so stores are direct in native mode and
// hypercalls in virtual mode.
//
// Walks read each table through one hw.ViewTable load. Visit reads the
// whole directory and every present table; VisitRange reads only the
// directory entries and leaf entries of its range. A walk's callback may
// store only to the entry it is handed or to entries already visited.
package pgtable
