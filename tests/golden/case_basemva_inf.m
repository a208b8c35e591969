function mpc = basemva_inf
mpc.version = '2';
mpc.baseMVA = 1e400;
mpc.bus = [
	1	3	0	0	0	0	1	1	0	0	1	1.1	0.9;
	2	1	10	5	0	0	1	1	0	0	1	1.1	0.9;
];
mpc.gen = [
	1	20	0	99	-99	1.0	100	1	100	0	0	0	0	0	0	0	0	0	0	0	0;
];
mpc.branch = [
	1	2	0	1	0	0	0	0	0	0	1	-360	360;
];
